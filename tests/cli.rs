//! End-to-end tests of the `multigrain` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // Integration tests live next to the binary under target/<profile>/.
    let mut p = std::env::current_exe().expect("test executable path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push("multigrain");
    p
}

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(bin()).args(args).output().expect("CLI runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run_cli(&["help"]);
    assert!(ok);
    assert!(stdout.contains("simulate"));
    assert!(stdout.contains("infer"));
    assert!(stdout.contains("predict"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (_, stderr, ok) = run_cli(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn simulate_reports_a_makespan() {
    let (stdout, _, ok) =
        run_cli(&["simulate", "--scheduler", "edtlp", "--bootstraps", "2", "--scale", "5000"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("makespan"));
    assert!(stdout.contains("EDTLP"));
}

#[test]
fn simulate_rejects_bad_scheduler() {
    let (_, stderr, ok) = run_cli(&["simulate", "--scheduler", "fifo"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scheduler"));
}

#[test]
fn zero_counts_are_rejected_with_clean_errors() {
    for (args, needle) in [
        (vec!["simulate", "--cells", "0"], "--cells: the blade needs at least 1 Cell"),
        (vec!["simulate", "--scale", "0"], "--scale: the workload scale must be at least 1"),
        (vec!["simulate", "--bootstraps", "0"], "--bootstraps: the workload needs at least 1"),
        (vec!["trace", "--cells", "0"], "--cells: the blade needs at least 1 Cell"),
        (vec!["trace", "--scale", "0"], "--scale: the workload scale must be at least 1"),
        (vec!["analyze", "--scale", "0"], "--scale: the workload scale must be at least 1"),
        (
            vec!["infer", "--input", "unused.fasta", "--workers", "0"],
            "--workers: the runtime needs at least 1 worker process",
        ),
        (
            vec!["predict", "--input", "unused.fasta", "--scale", "0"],
            "--scale: the workload scale must be at least 1",
        ),
    ] {
        let (_, stderr, ok) = run_cli(&args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(needle), "{args:?}: expected {needle:?} in {stderr:?}");
    }
}

#[test]
fn trace_writes_a_deterministic_chrome_trace() {
    let dir = std::env::temp_dir().join(format!("mg-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_a = dir.join("a.json");
    let out_b = dir.join("b.json");

    let common = ["trace", "--scheduler", "mgps", "--bootstraps", "4", "--scale", "2000", "--seed", "9"];
    let mut args_a: Vec<&str> = common.to_vec();
    args_a.extend(["--out", out_a.to_str().unwrap()]);
    let (stdout, stderr, ok) = run_cli(&args_a);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("spe utilization"), "summary expected: {stdout}");
    assert!(stdout.contains("checker-verified"), "checker must run by default: {stdout}");

    let mut args_b: Vec<&str> = common.to_vec();
    args_b.extend(["--out", out_b.to_str().unwrap()]);
    let (_, stderr, ok) = run_cli(&args_b);
    assert!(ok, "stderr: {stderr}");

    let a = std::fs::read(&out_a).unwrap();
    let b = std::fs::read(&out_b).unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must produce byte-identical traces");
    assert!(a.starts_with(b"{\"traceEvents\":["));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn demo_then_infer_round_trip() {
    let dir = std::env::temp_dir().join(format!("mg-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fasta = dir.join("demo.fasta");

    let (stdout, _, ok) = run_cli(&["demo", "--taxa", "6", "--sites", "80", "--seed", "3"]);
    assert!(ok);
    assert!(stdout.starts_with('>'), "demo must emit FASTA");
    std::fs::write(&fasta, &stdout).unwrap();

    let (stdout, stderr, ok) = run_cli(&[
        "infer",
        "--input",
        fasta.to_str().unwrap(),
        "--model",
        "jc",
        "--search",
        "nni",
        "--seed",
        "1",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("best tree lnL"));
    assert!(stdout.contains("taxon000"), "Newick output expected: {stdout}");

    // What every search/model variant printed before the engines shared
    // one traversal and one climb skeleton: lnL, accepted moves, tree.
    const NNI_TREE: &str = "(taxon000:0.042382,((taxon002:0.005816,taxon003:0.119149):0.032400,\
        (taxon004:0.107325,taxon005:0.000001):0.082823):0.185099,taxon001:0.207603);";
    let variants: [(&[&str], &[&str]); 5] = [
        (
            &["--model", "jc", "--search", "nni"],
            &["best tree lnL      -340.6198", "NNI/SPR accepted   4", NNI_TREE],
        ),
        (
            &["--model", "gtr"],
            &[
                "best tree lnL      -352.2541",
                "NNI/SPR accepted   7",
                "(taxon000:0.031765,((taxon002:0.000001,taxon003:0.125398):0.039175,\
                 (taxon004:0.111474,taxon005:0.000001):0.084551):0.205675,taxon001:0.226116);",
            ],
        ),
        (
            &["--search", "spr"],
            &[
                "best tree lnL      -340.6198",
                "NNI/SPR accepted   2",
                "(taxon000:0.042399,((taxon003:0.119089,taxon002:0.005956):0.032324,\
                 (taxon004:0.107325,taxon005:0.000001):0.082792):0.185130,taxon001:0.207589);",
            ],
        ),
        // Under +Γ the search itself runs under the shape; an estimated
        // shape is fitted on the plain-model tree above, then held.
        (
            &["--gamma", "0.5"],
            &[
                "+G alpha           0.5000",
                "best tree lnL      -344.9274",
                "NNI/SPR accepted   6",
                "(taxon000:0.031610,(taxon002:0.000001,(taxon003:0.107464,\
                 (taxon004:0.109350,taxon005:0.000001):0.107350):0.022292):0.288617,taxon001:0.261596);",
            ],
        ),
        (
            &["--gamma", "estimate"],
            &[
                "+G alpha           7.7645",
                "best tree lnL      -340.5363",
                "NNI/SPR accepted   4",
                "(taxon000:0.042234,((taxon002:0.005749,taxon003:0.120365):0.031503,\
                 (taxon004:0.108120,taxon005:0.000001):0.084762):0.190811,taxon001:0.211979);",
            ],
        ),
    ];
    for (flags, expected) in variants {
        let mut args = vec!["infer", "--input", fasta.to_str().unwrap(), "--seed", "1"];
        args.extend_from_slice(flags);
        let (stdout, stderr, ok) = run_cli(&args);
        assert!(ok, "{flags:?}: stderr: {stderr}");
        for line in expected {
            assert!(
                stdout.lines().any(|l| l == *line),
                "{flags:?}: no line {line:?} in\n{stdout}"
            );
        }
    }

    let (stdout, stderr, ok) =
        run_cli(&["predict", "--input", fasta.to_str().unwrap(), "--scale", "5000"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("MGPS"));
    assert!(stdout.contains("Linux"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn infer_fits_gamma_and_bootstraps_under_the_chosen_model() {
    use multigrain::prelude::*;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("mg-infer-model-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fasta = dir.join("demo.fasta");
    let aln = Alignment::synthetic(6, 80, &Jc69, 0.08, 3);
    std::fs::write(&fasta, aln.to_fasta()).unwrap();
    let (stdout, stderr, ok) = run_cli(&[
        "infer", "--input", fasta.to_str().unwrap(), "--model", "gtr", "--gamma", "0.5",
        "--bootstraps", "4", "--workers", "2", "--seed", "1",
    ]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(ok, "stderr: {stderr}");

    // The same analysis in-process: the search, the bootstraps and the
    // support all under GTR+Γ.
    let data = Arc::new(PatternAlignment::compress(&aln));
    fn pipeline<M: SubstModel + Clone + 'static>(model: M, data: &Arc<PatternAlignment>) -> Vec<String> {
        let best = hill_climb(&model, data, &SearchConfig::default(), 1);
        let (reps, _) = ParallelAnalysis::cell(SchedulerKind::Mgps, 2).run_bootstraps(model, data, 4, 1);
        let trees: Vec<Tree> = reps.into_iter().map(|r| r.tree).collect();
        let pct: Vec<u32> =
            support_values(&best.tree, &trees).iter().map(|s| (s * 100.0).round() as u32).collect();
        vec![format!("best tree lnL      {:.4}", best.lnl), format!("support            {pct:?}")]
    }
    let want = pipeline(Gamma::new(Gtr::example(), 0.5, 4), &data);
    for other in [pipeline(Gtr::example(), &data), pipeline(Gamma::new(Jc69, 0.5, 4), &data)] {
        for (w, o) in want.iter().zip(&other) {
            assert_ne!(w, o, "the fixture must tell the models apart");
        }
    }
    for line in &want {
        assert!(stdout.lines().any(|l| l == line), "no {line:?} in\n{stdout}");
    }
}

#[test]
fn infer_protein_runs() {
    let dir = std::env::temp_dir().join(format!("mg-cli-prot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fasta = dir.join("prot.fasta");
    std::fs::write(
        &fasta,
        ">a\nARNDCQEGHIKLMF\n>b\nARNDCQEGHIKLMF\n>c\nVYWTSPFMLKIHGE\n>d\nVYWTSPFMLKIHGE\n",
    )
    .unwrap();
    let input = fasta.to_str().unwrap();
    let (stdout, stderr, ok) = run_cli(&["infer", "--input", input, "--model", "poisson"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("alignment: 4 taxa"));
    assert!(stdout.contains("best tree lnL      -83.8809"), "{stdout}");
    assert!(
        stdout.contains("(a:0.000001,(c:0.000001,d:0.000001):10.000000,b:0.000001);"),
        "{stdout}"
    );
    // Protein +Γ bootstraps on the runtime, and their support.
    let (stdout, stderr, ok) = run_cli(&[
        "infer", "--input", input, "--model", "poisson", "--gamma", "0.5", "--bootstraps", "2",
        "--workers", "2",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.lines().any(|l| l.starts_with("support            [")), "{stdout}");

    // The same residues under a DNA model fail at the first non-nucleotide
    // letter, pointing at the protein model; an unknown model names them.
    let (_, stderr, code) = run_cli_code(&["infer", "--input", input]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains("invalid character 'Q' (amino-acid data? `infer --model poisson` reads protein)"),
        "{stderr}"
    );
    let (_, stderr, code) = run_cli_code(&["infer", "--input", input, "--model", "lg"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("unknown model \"lg\" (expected jc|k80|gtr|poisson)"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn infer_protein_refuses_a_duplicate_taxon() {
    let dir = std::env::temp_dir().join(format!("mg-cli-prot-dup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fasta = dir.join("dup.fasta");
    std::fs::write(&fasta, ">a\nARND\n>b\nARNE\n>a\nARNK\n").unwrap();
    let (stdout, stderr, code) =
        run_cli_code(&["infer", "--input", fasta.to_str().unwrap(), "--model", "poisson"]);
    assert_ne!(code, 0, "stdout: {stdout}");
    assert!(stderr.contains("duplicate taxon a"), "{stderr}");
    assert!(!stdout.contains("best tree"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_input_is_a_clean_error() {
    let (_, stderr, ok) = run_cli(&["infer"]);
    assert!(!ok);
    assert!(stderr.contains("--input is required"));
}

/// Like [`run_cli`] but surfaces the numeric exit code, for the
/// classified-exit-code contract (0 ok / 1 other / 2 usage / 3 I/O /
/// 4 checker violation / 5 unrecovered fault — see the USAGE text).
fn run_cli_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(bin()).args(args).output().expect("CLI runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("CLI exited normally"),
    )
}

#[test]
fn usage_errors_exit_with_code_2() {
    // Unknown command, unknown flag value, malformed flag, and a
    // zero count all classify as usage trouble.
    for args in [
        vec!["bogus"],
        vec!["infer-protein"],
        vec!["audit"],
        vec!["simulate", "--scheduler", "fifo"],
        vec!["trace", "--bootstraps", "many"],
        vec!["simulate", "notaflag"],
        vec!["simulate", "--cells", "0"],
        vec!["top", "--plain", "sometimes"],
    ] {
        let (_, stderr, code) = run_cli_code(&args);
        assert_eq!(code, 2, "{args:?} should be usage (2): {stderr}");
    }
    // And no-args prints usage with the same code.
    let (_, _, code) = run_cli_code(&[]);
    assert_eq!(code, 2);

    // A Γ shape that is not finite and positive is refused before the
    // search, as an unparseable one is.
    use multigrain::prelude::{Alignment, Jc69};
    let dir = std::env::temp_dir().join(format!("mg-gamma-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fasta = dir.join("demo.fasta");
    std::fs::write(&fasta, Alignment::synthetic(6, 80, &Jc69, 0.08, 3).to_fasta()).unwrap();
    for alpha in ["abc", "0", "-1", "nan", "inf"] {
        let args = ["infer", "--input", fasta.to_str().unwrap(), "--gamma", alpha];
        let (stdout, stderr, code) = run_cli_code(&args);
        assert_eq!(code, 2, "--gamma {alpha} should be usage (2): {stderr}");
        assert!(stderr.contains("--gamma"), "--gamma {alpha}: {stderr}");
        assert!(stdout.is_empty(), "--gamma {alpha} ran the search first:\n{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_flag_the_command_does_not_read_is_a_usage_error() {
    // `--bootstrap` used to run the default 8 bootstraps and exit 0.
    let (stdout, stderr, code) = run_cli_code(&["simulate", "--bootstrap", "4"]);
    assert_eq!(code, 2, "an undeclared flag should be usage (2): {stderr}");
    assert!(stderr.contains("simulate does not take --bootstrap"), "{stderr}");
    assert!(stdout.is_empty(), "nothing may run: {stdout}");
    // A flag another command reads is still foreign here.
    let (_, stderr, code) = run_cli_code(&["demo", "--workers", "2"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("demo does not take --workers"), "{stderr}");
    // Options serve no longer has are refused, not ignored.
    for (flag, value) in
        [("shed-watermark", "4"), ("tenant-queue", "2"), ("snapshot-out", "x.json")]
    {
        let (stdout, stderr, code) = run_cli_code(&["serve", &format!("--{flag}"), value]);
        assert_eq!(code, 2, "serve --{flag} should be usage (2): {stderr}");
        assert!(stderr.contains(&format!("serve does not take --{flag}")), "{stderr}");
        assert!(stdout.is_empty(), "nothing may run: {stdout}");
    }
}

#[test]
fn serve_accepts_the_flags_the_benchmark_harness_passes() {
    // The serve_open workload boots `serve` with exactly these flags.
    let (stdout, stderr, code) = run_cli_code(&[
        "serve", "--workers", "2", "--tasks", "1", "--job-queue", "64", "--ring-capacity",
        "65536", "--for-ms", "200", "--seed", "7",
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn a_seed_a_run_log_cannot_record_exactly_is_a_usage_error() {
    // A log stores its seed as a JSON number: above 2^53 it would be
    // written rounded and `RunLog::from_value` would refuse the file.
    // Every command takes `--seed` through the one helper that says so.
    let too_big = (1u64 << 53) + 1;
    for command in ["trace", "profile", "chaos", "analyze", "atlas", "serve", "loadgen", "demo"] {
        for seed in [too_big, u64::MAX - 5] {
            let (_, stderr, code) = run_cli_code(&[command, "--seed", &seed.to_string()]);
            assert_eq!(code, 2, "{command} --seed {seed} should be usage (2): {stderr}");
            assert!(stderr.contains("--seed") && stderr.contains("2^53"), "{command}: {stderr}");
        }
    }
    // The bound itself still round-trips, so it is still a seed.
    let out = std::env::temp_dir().join(format!("multigrain-seed-{}.json", std::process::id()));
    let (_, stderr, code) = run_cli_code(&[
        "trace", "--bootstraps", "2", "--scale", "4000", "--seed", &(1u64 << 53).to_string(),
        "--out", out.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&out);
    assert_eq!(code, 0, "2^53 is the largest exact seed: {stderr}");
}

#[test]
fn io_errors_exit_with_code_3() {
    // A path under a non-directory cannot be created or written.
    let (_, stderr, code) = run_cli_code(&[
        "trace",
        "--bootstraps",
        "2",
        "--scale",
        "50",
        "--out",
        "/dev/null/nope/trace.json",
    ]);
    assert_eq!(code, 3, "unwritable --out should be I/O (3): {stderr}");

    let (_, stderr, code) = run_cli_code(&["infer", "--input", "/definitely/not/here.fasta"]);
    assert_eq!(code, 3, "unreadable --input should be I/O (3): {stderr}");
}

#[test]
fn clean_runs_exit_with_code_0() {
    let (_, stderr, code) =
        run_cli_code(&["simulate", "--scheduler", "mgps", "--bootstraps", "2", "--scale", "5000"]);
    assert_eq!(code, 0, "{stderr}");
}

#[test]
fn unrecovered_faults_exit_with_code_5() {
    // Retries exhausted with the PPE fallback disabled: tasks are lost,
    // the run completes but the workload does not.
    let lethal = "seed=9,crash=0.5,retries=0,fallback=off";
    let (stdout, stderr, code) = run_cli_code(&[
        "simulate", "--scheduler", "mgps", "--bootstraps", "2", "--scale", "4000", "--faults",
        lethal,
    ]);
    assert_eq!(code, 5, "lethal plan should be unrecovered (5): {stderr}");
    assert!(stdout.contains("lost"), "fault counters expected: {stdout}");
    assert!(stderr.contains("task(s) lost"), "stderr names the loss: {stderr}");

    // The same plan through `trace` refuses to export, same class.
    let (_, stderr, code) = run_cli_code(&[
        "trace", "--scheduler", "mgps", "--bootstraps", "2", "--scale", "4000", "--faults", lethal,
        "--out", "/dev/null",
    ]);
    assert_eq!(code, 5, "stranded trace should be unrecovered (5): {stderr}");

    // A malformed spec stays a usage error, not a fault outcome.
    let (_, _, code) = run_cli_code(&["simulate", "--faults", "stall=2.0"]);
    assert_eq!(code, 2);
}

#[test]
fn survivable_faults_exit_with_code_0_and_report_recovery() {
    let (stdout, stderr, code) = run_cli_code(&[
        "simulate", "--scheduler", "mgps", "--bootstraps", "2", "--scale", "4000", "--faults",
        "seed=9,stall=0.05",
    ]);
    assert_eq!(code, 0, "recovered run should be clean (0): {stderr}");
    assert!(stdout.contains("faults"), "fault summary expected: {stdout}");
    assert!(stdout.contains("0 lost"), "nothing may be lost: {stdout}");
}

#[test]
fn chaos_sweep_survives_and_lethal_spec_trips_the_checker() {
    // The seeded sweep across every scheduler completes every task.
    let (stdout, stderr, code) =
        run_cli_code(&["chaos", "--bootstraps", "2", "--scale", "4000", "--rates", "0.01"]);
    assert_eq!(code, 0, "sweep must survive: {stderr}");
    assert!(stdout.contains("every admitted task completed exactly once"), "{stdout}");

    // A known-lethal spec loses tasks, and the checker sees it in the
    // recorded log: classified as a violation (4), not unrecovered (5).
    let (stdout, stderr, code) = run_cli_code(&[
        "chaos", "--bootstraps", "2", "--scale", "4000", "--faults",
        "seed=9,crash=0.5,retries=0,fallback=off",
    ]);
    assert_eq!(code, 4, "lethal chaos should be a checker violation (4): {stderr}");
    assert!(stdout.contains("lost"), "{stdout}");
}

#[test]
fn loadgen_artifacts_are_byte_deterministic_across_invocations() {
    let dir = std::env::temp_dir().join(format!("mg-loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<_> = (0..2)
        .map(|i| (dir.join(format!("lt{i}.json")), dir.join(format!("lt{i}.html"))))
        .collect();
    for (json, html) in &paths {
        let (stdout, stderr, code) = run_cli_code(&[
            "loadgen", "--seed", "11", "--rate", "600", "--duration", "300",
            "--tenants", "3", "--out", json.to_str().unwrap(),
            "--html", html.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stderr}");
        assert!(stdout.contains("verdicts"), "{stdout}");
        assert!(stdout.contains("offered load"), "{stdout}");
    }
    let bytes = |p: &std::path::Path| std::fs::read(p).expect("artifact written");
    assert_eq!(bytes(&paths[0].0), bytes(&paths[1].0), "JSON must be byte-identical");
    assert_eq!(bytes(&paths[0].1), bytes(&paths[1].1), "HTML must be byte-identical");
    let json = String::from_utf8(bytes(&paths[0].0)).unwrap();
    assert!(json.contains("\"mgps-loadtest/v1\""), "schema tag missing");
    let html = String::from_utf8(bytes(&paths[0].1)).unwrap();
    assert!(html.starts_with("<!DOCTYPE html>"), "self-contained HTML report expected");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadgen_rejects_degenerate_rates_as_usage_errors() {
    for rate in ["0", "-5", "nope"] {
        let (_, stderr, code) = run_cli_code(&["loadgen", "--rate", rate]);
        assert_eq!(code, 2, "--rate {rate} should be a usage error: {stderr}");
        assert!(stderr.contains("--rate"), "{stderr}");
    }
}
