//! # `experiments` — regeneration harnesses for every table and figure
//!
//! One function per published result (see DESIGN.md's experiment index):
//! §5.1's optimization ablation, Tables 1–2, Figures 7–10, and the §5.2
//! micro-measurements. Each returns a structured [`report::Experiment`]
//! carrying our measured values next to the paper's, renders as text, and
//! serializes to JSON (`target/experiments/*.json`) for EXPERIMENTS.md.
//!
//! Binaries: `table1`, `table2`, `spe_opt`, `fig7` … `fig10`, `micro`, and
//! `all` (runs everything and writes the JSON bundle).

#![warn(missing_docs)]

pub mod ablations;
pub mod atlas;
pub mod checked;
pub mod exps;
pub mod report;

pub use ablations::{ablation_threshold, ablation_window, kernel_mix, spe_opt_ladder};
pub use atlas::{cell_seed, scheduler_of_slug, sweep, SweepConfig};
pub use checked::{assert_clean, checked_run, reset_tally, tally, CheckTally};
pub use exps::*;
pub use report::{Experiment, Row, Series};

/// Default workload scale for the experiment binaries.
pub const DEFAULT_SCALE: usize = 500;

/// Parse the arguments after the program name: nothing, or `--scale N`
/// with `N` at least 1 (default [`DEFAULT_SCALE`]).
///
/// # Errors
/// A message naming the argument or value that is not one of these.
pub fn parse_scale(args: &[String]) -> Result<usize, String> {
    let Some((flag, rest)) = args.split_first() else {
        return Ok(DEFAULT_SCALE);
    };
    if flag != "--scale" {
        return Err(format!("unknown argument {flag:?}"));
    }
    match rest {
        [] => Err("--scale needs a value".to_string()),
        [value] => match value.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("--scale takes a whole number of at least 1, not {value:?}")),
        },
        [_, extra, ..] => Err(format!("unknown argument {extra:?}")),
    }
}

/// The workload scale of an experiment binary's command line (see
/// [`parse_scale`]); on a bad argument, print why and exit with status 2.
pub fn scale_from_args() -> usize {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_scale(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: [--scale N]");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<usize, String> {
        parse_scale(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_argument_is_the_default_scale() {
        assert_eq!(parse(&[]), Ok(DEFAULT_SCALE));
    }

    #[test]
    fn a_valid_scale_is_taken() {
        assert_eq!(parse(&["--scale", "2000"]), Ok(2000));
        assert_eq!(parse(&["--scale", "1"]), Ok(1));
    }

    #[test]
    fn a_malformed_or_zero_scale_is_refused_by_value() {
        for bad in ["abc", "0", "-3", "1.5", ""] {
            let err = parse(&["--scale", bad]).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{bad}: {err}");
        }
        assert_eq!(parse(&["--scale"]), Err("--scale needs a value".to_string()));
    }

    #[test]
    fn an_unknown_argument_is_refused_by_name() {
        assert_eq!(parse(&["--scal", "300"]), Err("unknown argument \"--scal\"".to_string()));
        assert_eq!(parse(&["--scale", "300", "x"]), Err("unknown argument \"x\"".to_string()));
    }
}
