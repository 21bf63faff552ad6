//! The maximum-likelihood kernels: `newview`, `evaluate`, `makenewz`.
//!
//! These are the three functions that consume 98.77 % of RAxML's runtime
//! (§5.1) and are off-loaded to the SPEs:
//!
//! * [`LikelihoodEngine::newview`] — Felsenstein pruning: combine two child
//!   conditional likelihood vectors (CLVs) across their branches into the
//!   parent's CLV;
//! * [`LikelihoodEngine::evaluate`] — the log-likelihood at an edge; its
//!   inner loop is exactly the paper's Figure 3, complete with the
//!   per-site scaling exponent (`x2[i].exp * log(minlikelihood)`);
//! * [`LikelihoodEngine::makenewz`] — Newton–Raphson branch-length
//!   optimization using analytic first and second derivatives. As in
//!   RAxML, the edge's CLV pair is put into the model's eigen basis once
//!   ([`EdgeTable`], RAxML's "sumtable"), so a Newton step needs only
//!   `exp(λ_k t)` and an `S`-term dot product per pattern.
//!
//! One body serves every model, as in RAxML and PLL: DNA and protein,
//! single-rate and +Γ. The engine is generic over the state count `S` (4 by
//! default, 20 for protein) and reads the rate categories `K` from
//! [`SubstModel::rates`]; a pattern of a [`Clv`] or [`EdgeTable`] holds `S`
//! values per rate category, rescaled when all are small; `evaluate`
//! averages the categories before the log, and Newton differentiates
//! `exp(λ_k r_c t)` per category.
//!
//! All three iterate over *site patterns* with per-pattern weights and no
//! loop-carried dependencies — the loop-level parallelism the runtime
//! work-shares across SPEs. `newview_range_into` / `evaluate_range` /
//! `edge_table_range` / `table_derivatives` are the chunked forms, and
//! their `_with` forms (below) the only loops. An [`Operand`] is a tip by taxon — never a CLV:
//! RAxML's tip/inner split, read through a [`Transition`]'s product table
//! — or a CLV, full-width or the chunk's own piece, so a chunk can run a
//! whole traversal on its pattern range without a full-width CLV existing.
//! A `_with` form takes its pattern-independent factors ready-made. A tip
//! is a small integer code of the alignment's alphabet: a DNA mask or a
//! protein residue class.

#![allow(clippy::needless_range_loop)] // index loops mirror the math in dense kernels

use std::ops::Range;

use crate::alignment::{alphabet, PatternAlignment};
use crate::dna::STATES;
use crate::model::{Matrix, Spectrum, SubstModel};
use crate::traversal::{self, Kernels};
use crate::tree::{EdgeId, Tree};

/// Likelihood values below this threshold trigger rescaling (RAxML's
/// `minlikelihood`).
pub const SCALE_THRESHOLD: f64 = 1e-100;
/// The rescaling multiplier (1 / `SCALE_THRESHOLD`).
pub const SCALE_MULTIPLIER: f64 = 1e100;

/// `ln(SCALE_THRESHOLD)`: each scaling event contributes this to a site's
/// log-likelihood — the `log(minlikelihood)` of the paper's Figure 3.
pub fn log_scale() -> f64 {
    SCALE_THRESHOLD.ln()
}

/// Upper bound on branch lengths during optimization.
pub const MAX_BRANCH: f64 = 10.0;
/// Newton iteration cap in `makenewz`.
pub const NEWTON_MAX_ITERS: usize = 32;
/// Convergence threshold on the branch-length step.
pub const NEWTON_EPS: f64 = 1e-9;

/// Clamp a branch length to the optimizer's legal interval.
pub fn clamp_branch(t: f64) -> f64 {
    t.clamp(Tree::MIN_BRANCH, MAX_BRANCH)
}

/// The Newton–Raphson iteration of `makenewz` on one branch length, as a
/// state: the damped step, the convergence test and the
/// [`NEWTON_MAX_ITERS`] cap live here and nowhere else. Whoever can sum the
/// log-likelihood derivatives drives it — [`newton_branch_length`] in a
/// plain loop, an off-loaded traversal from round to round of its task —
/// so all of them stop at the same length after the same number of steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Newton {
    t: f64,
    steps: usize,
}

impl Newton {
    /// Start from `t0`, clamped to the legal interval.
    pub fn new(t0: f64) -> Newton {
        Newton { t: clamp_branch(t0), steps: 0 }
    }

    /// The length the next derivatives are wanted at; once [`Self::feed`]
    /// has returned `None`, the optimized length.
    pub fn t(&self) -> f64 {
        self.t
    }

    /// Derivative pairs fed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// One damped Newton step on the derivatives `(d1, d2)` at
    /// [`Self::t`]. `Some(next)` asks for the derivatives at `next`; `None`
    /// means the step converged or the cap is reached.
    pub fn feed(&mut self, d1: f64, d2: f64) -> Option<f64> {
        let t = self.t;
        let step = if d1 == 0.0 {
            // Flat: the data say nothing about this length (an edge to an
            // all-gap taxon), so there is nowhere to go.
            0.0
        } else if d2 < 0.0 {
            -d1 / d2
        } else {
            // Non-concave region: move along the gradient with a small fixed
            // fraction of the current length.
            0.25 * t * d1.signum()
        };
        // Damp huge steps; Newton far from the optimum can overshoot.
        let step = step.clamp(-0.5 * t.max(0.01), 2.0 * t.max(0.01));
        self.t = clamp_branch(t + step);
        self.steps += 1;
        let converged = (self.t - t).abs() < NEWTON_EPS;
        (!converged && self.steps < NEWTON_MAX_ITERS).then_some(self.t)
    }
}

/// Newton–Raphson branch-length optimization (`makenewz`): [`Newton`] steps
/// from `t0` on the derivatives `derivs(t) = (d1, d2)` until it stops. The
/// direct engine sums the derivatives in place, the off-loading engine
/// work-shares each sum inside one task; both iterate the same state, so
/// they agree bit-for-bit.
pub fn newton_branch_length(t0: f64, mut derivs: impl FnMut(f64) -> (f64, f64)) -> f64 {
    let mut newton = Newton::new(t0);
    loop {
        let (d1, d2) = derivs(newton.t());
        if newton.feed(d1, d2).is_none() {
            return newton.t();
        }
    }
}

/// Golden-section maximization of `f` over `[lo, hi]`: at most `max_iters`
/// bracket shrinks, stopping early once `narrow(lo, hi)` holds. Returns the
/// midpoint of the final bracket.
pub(crate) fn golden_section_max(
    mut lo: f64,
    mut hi: f64,
    max_iters: usize,
    narrow: impl Fn(f64, f64) -> bool,
    mut f: impl FnMut(f64) -> f64,
) -> f64 {
    const INVPHI: f64 = 0.618_033_988_749_894_9;
    let mut x1 = hi - INVPHI * (hi - lo);
    let mut x2 = lo + INVPHI * (hi - lo);
    let mut f1 = f(x1);
    let mut f2 = f(x2);
    for _ in 0..max_iters {
        if narrow(lo, hi) {
            break;
        }
        if f1 < f2 {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + INVPHI * (hi - lo);
            f2 = f(x2);
        } else {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - INVPHI * (hi - lo);
            f1 = f(x1);
        }
    }
    0.5 * (lo + hi)
}

/// A conditional likelihood vector for every site pattern and rate
/// category, plus per-pattern scaling exponents (the `exp` field of
/// RAxML's likelihood vectors), which a pattern's categories share.
#[derive(Debug, Clone, PartialEq)]
pub struct Clv {
    /// `vals[(pattern * K + category) * S + state]` for `K` categories
    /// of `S` states.
    vals: Vec<f64>,
    /// Number of times each pattern was rescaled.
    scale: Vec<u32>,
}

impl Clv {
    /// Patterns covered.
    pub fn n_patterns(&self) -> usize {
        self.scale.len()
    }

    /// The values of `pattern`: an `S`-vector per rate category.
    pub fn pattern(&self, pattern: usize) -> &[f64] {
        let width = self.vals.len() / self.scale.len();
        &self.vals[pattern * width..(pattern + 1) * width]
    }

    /// Total scaling events across all patterns (diagnostic).
    pub fn total_scalings(&self) -> u64 {
        self.scale.iter().map(|&s| s as u64).sum()
    }

    /// Assemble a CLV from raw storage (used by chunked/off-loaded
    /// producers that compute pattern ranges on different cores).
    ///
    /// # Panics
    /// Panics unless `vals` holds as many values for every pattern.
    pub fn from_raw(vals: Vec<f64>, scale: Vec<u32>) -> Clv {
        let width = vals.len() / scale.len().max(1);
        assert!(width * scale.len() == vals.len(), "CLV storage size mismatch");
        Clv { vals, scale }
    }

    /// The raw storage: `(values, scaling exponents)`.
    pub fn as_raw(&self) -> (&[f64], &[u32]) {
        (&self.vals, &self.scale)
    }

    /// Tear a CLV back into raw storage (for recycling via [`ClvArena`]).
    pub fn into_raw(self) -> (Vec<f64>, Vec<u32>) {
        (self.vals, self.scale)
    }
}

/// An edge's CLV pair `u`, `v` in the eigen basis of the model's
/// [`Spectrum`] `(λ, L, R)`: for every pattern `j` and rate category `c`
/// the sums, one per state `k`,
/// `E[j][c][k] = (Σ_x π_x·u[j][c][x]·L[x][k]) · (Σ_y R[k][y]·v[j][c][y])`,
/// so the pattern's likelihood at any length `t` is, up to the factor
/// `1/K`, `Σ_c Σ_k E[j][c][k]·exp(λ_k r_c t)`. Built once per edge by
/// [`LikelihoodEngine::edge_table_range`], read by every Newton step
/// through [`LikelihoodEngine::table_derivatives`].
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTable {
    /// `sums[(pattern * K + category) * S + k]`.
    sums: Vec<f64>,
    patterns: usize,
}

impl EdgeTable {
    /// Patterns covered.
    pub fn n_patterns(&self) -> usize {
        self.patterns
    }

    /// The raw sums, `S` per pattern and rate category.
    pub fn as_raw(&self) -> &[f64] {
        &self.sums
    }
}

/// A free list of CLV and edge-table storage for the native hot path.
/// Buffers are handed out one 4-vector per pattern; a kernel writing more
/// states or rate categories than that widens its output.
///
/// A chunk of an off-loaded traversal computes every CLV of the walk on
/// its own pattern range, one range-sized piece per tree node; no
/// full-width CLV is ever assembled from them. Allocating (and zeroing)
/// each piece would be thousands of short-lived allocations per
/// optimization pass; an arena is owned per worker (never shared across
/// processes) and recycles the `vals`/`scale` pairs instead.
///
/// Buffers handed out by [`ClvArena::take`] have **unspecified contents**
/// — callers overwrite every pattern they claim (range kernels write their
/// whole range), so zeroing would be pure overhead.
#[derive(Debug, Default)]
pub struct ClvArena {
    free: Vec<(Vec<f64>, Vec<u32>)>,
    tables: Vec<Vec<f64>>,
    hits: u64,
    misses: u64,
    /// CLVs and tables handed out and not yet put back.
    out: (u64, u64),
}

impl ClvArena {
    /// Retain at most this many free buffers; beyond it, returned storage
    /// is dropped so a degree spike cannot pin memory forever.
    const MAX_FREE: usize = 64;

    /// An empty arena.
    pub fn new() -> ClvArena {
        ClvArena::default()
    }

    /// A CLV of `n` patterns with unspecified contents, reusing recycled
    /// storage when a free buffer has sufficient capacity.
    pub fn take(&mut self, n: usize) -> Clv {
        self.out.0 += 1;
        let want = n * STATES;
        if let Some(pos) = self
            .free
            .iter()
            .rposition(|(v, s)| v.capacity() >= want && s.capacity() >= n)
        {
            self.hits += 1;
            let (mut vals, mut scale) = self.free.swap_remove(pos);
            vals.resize(want, 0.0);
            scale.resize(n, 0);
            Clv { vals, scale }
        } else {
            self.misses += 1;
            Clv { vals: vec![0.0; want], scale: vec![0; n] }
        }
    }

    /// Recycle a CLV's storage into the free list.
    pub fn put(&mut self, clv: Clv) {
        self.out.0 = self.out.0.saturating_sub(1);
        if self.free.len() < Self::MAX_FREE {
            self.free.push(clv.into_raw());
        }
    }

    /// An edge table of `n` patterns with unspecified contents, like
    /// [`Self::take`].
    pub fn take_table(&mut self, n: usize) -> EdgeTable {
        self.out.1 += 1;
        let want = n * STATES;
        let mut sums = match self.tables.iter().rposition(|s| s.capacity() >= want) {
            Some(pos) => {
                self.hits += 1;
                self.tables.swap_remove(pos)
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(want)
            }
        };
        sums.resize(want, 0.0);
        EdgeTable { sums, patterns: n }
    }

    /// Recycle an edge table's storage.
    pub fn put_table(&mut self, table: EdgeTable) {
        self.out.1 = self.out.1.saturating_sub(1);
        if self.tables.len() < Self::MAX_FREE {
            self.tables.push(table.sums);
        }
    }

    /// `(reuse hits, allocation misses)` since construction (diagnostic).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(CLVs, edge tables)` taken less those put back (diagnostic).
    pub fn outstanding(&self) -> (u64, u64) {
        self.out
    }
}

impl Extend<Clv> for ClvArena {
    /// [`ClvArena::put`] each CLV.
    fn extend<I: IntoIterator<Item = Clv>>(&mut self, clvs: I) {
        clvs.into_iter().for_each(|clv| self.put(clv));
    }
}

impl Extend<EdgeTable> for ClvArena {
    /// [`ClvArena::put_table`] each table.
    fn extend<I: IntoIterator<Item = EdgeTable>>(&mut self, tables: I) {
        tables.into_iter().for_each(|table| self.put_table(table));
    }
}

/// View a pattern slice as the fixed-width array [`matvec`] operates on.
#[inline(always)]
fn vector<const S: usize>(s: &[f64]) -> &[f64; S] {
    s.try_into().expect("pattern slice is S wide")
}

/// `[Σ_y m[x][y]·v[y]; x in 0..S]`: the one operation all three kernels
/// spend their time in. Row-major accumulation, one output state at a
/// time — this floating-point order is frozen; the benchmark's `lnl_sum`
/// anchors and the replay digests depend on it.
#[inline(always)]
fn matvec<const S: usize>(m: &Matrix<S>, v: &[f64; S]) -> [f64; S] {
    let mut out = [0.0; S];
    for x in 0..S {
        let mut s = 0.0;
        for y in 0..S {
            s += m[x][y] * v[y];
        }
        out[x] = s;
    }
    out
}

/// The tip vector of the tip code `code`: 1.0 for every state it allows.
#[inline(always)]
fn tip_vector<const S: usize>(code: u8) -> [f64; S] {
    let set = alphabet::<S>().states[usize::from(code)];
    std::array::from_fn(|s| f64::from(set >> s & 1))
}

/// Where an operand of `held` patterns starts, for a kernel running on the
/// chunk `range` of `n` patterns: a full-width operand holds pattern 0
/// onward, a chunk-local piece exactly `range`.
///
/// # Panics
/// Panics unless the operand is full-width or holds exactly `range`.
fn first_held(held: usize, n: usize, range: &Range<usize>, what: &str) -> usize {
    if held == n {
        return 0;
    }
    assert_eq!(held, range.len(), "{what} holds neither all {n} patterns nor the chunk {range:?}");
    range.start
}

/// One operand of a kernel: a tip, read by taxon from the alignment and
/// never materialized, or a CLV (full-width or the chunk's own piece) —
/// `&Clv` where a kernel reads it, `Clv` where a traversal owns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand<C> {
    /// The tip of this taxon.
    Tip(usize),
    /// A computed CLV.
    Clv(C),
}

impl Operand<Clv> {
    /// The operand as a kernel reads it.
    pub fn as_ref(&self) -> Operand<&Clv> {
        match self {
            Operand::Tip(taxon) => Operand::Tip(*taxon),
            Operand::Clv(clv) => Operand::Clv(clv),
        }
    }
}

impl<'c> From<&'c Clv> for Operand<&'c Clv> {
    fn from(clv: &'c Clv) -> Self {
        Operand::Clv(clv)
    }
}

/// Entries of a [`Transition`]'s product table: one per bit of a `u32`
/// set of held tip codes, so any code indexes it unchecked (DNA uses 16,
/// protein 24).
const CODES: usize = 32;

/// A matrix a kernel applies to an operand — `P(t)` of a branch or a
/// factor of the eigen basis — with its products `m·x` for the tip vectors
/// `x`, by tip code, each the same `matvec` on the same inputs a CLV's
/// pattern gets: RAxML's tip-vector table.
#[derive(Debug, Clone)]
pub struct Transition<const S: usize = STATES> {
    m: Matrix<S>,
    products: [[f64; S]; CODES],
}

impl<const S: usize> Transition<S> {
    /// Every tip code of the alphabet.
    fn all() -> u32 {
        u32::MAX >> (CODES - alphabet::<S>().states.len())
    }

    /// `m` with the products of only the codes in the bit set `held`.
    fn new(m: Matrix<S>, mut held: u32) -> Self {
        let mut products = [[0.0; S]; CODES];
        while held != 0 {
            let b = held.trailing_zeros() as usize;
            held &= held - 1;
            products[b] = matvec(&m, &tip_vector(b as u8));
        }
        Transition { m, products }
    }
}

/// One value per rate category, the first inline: a single-rate model's
/// kernels allocate nothing for it.
#[derive(Debug, Clone, PartialEq)]
pub struct PerCategory<T> {
    first: T,
    rest: Vec<T>,
}

/// One operand over a kernel's chunk, under a [`Transition`] per rate
/// category: a tip's codes and the products, or a CLV's values and
/// exponents for the chunk ([`first_held`]) and the matrices.
struct Side<'s, const S: usize> {
    tip: bool,
    codes: &'s [u8],
    vals: &'s [f64],
    scale: &'s [u32],
    /// Category 0's matrix, by value, and products.
    m: Matrix<S>,
    products: &'s [[f64; S]; CODES],
    /// Categories 1..K's transitions; none where category 0's serves all.
    rest: &'s [Transition<S>],
    /// The model's rate categories K: a CLV pattern holds K `S`-vectors.
    k: usize,
}

impl<const S: usize> Side<'_, S> {
    /// Category `c` of the chunk's `j`-th vector `x`.
    #[inline(always)]
    fn vector<const TIP: bool, const ONE: bool>(&self, j: usize, c: usize) -> [f64; S] {
        let at = (if ONE { j } else { j * self.k + c }) * S;
        if TIP { tip_vector(self.codes[j]) } else { *vector(&self.vals[at..at + S]) }
    }

    /// `m·x` of category `c` of the chunk's `j`-th vector.
    #[inline(always)]
    fn times<const TIP: bool, const ONE: bool>(&self, j: usize, c: usize) -> [f64; S] {
        let (m, products) = match self.rest.get(c.wrapping_sub(1)) {
            Some(p) if !ONE => (&p.m, &p.products),
            _ => (&self.m, self.products),
        };
        if TIP {
            products[usize::from(self.codes[j]) % CODES]
        } else {
            matvec(m, &self.vector::<false, ONE>(j, c))
        }
    }

    /// The scaling exponent of the chunk's `j`-th pattern: 0 at a tip.
    #[inline(always)]
    fn scale<const TIP: bool>(&self, j: usize) -> u32 {
        if TIP { 0 } else { self.scale[j] }
    }
}

/// `$kernel(…)` instantiated for the tip/CLV pairing of the sides `$l`, `$r`
/// and for one rate category (`ONE`) or any number.
macro_rules! per_pairing {
    ($l:expr, $r:expr, $kernel:ident($($arg:expr),*)) => {
        match ($l.tip, $r.tip, $l.k == 1) {
            (true, true, true) => $kernel::<_, true, true, true>($($arg),*),
            (true, false, true) => $kernel::<_, true, false, true>($($arg),*),
            (false, true, true) => $kernel::<_, false, true, true>($($arg),*),
            (false, false, true) => $kernel::<_, false, false, true>($($arg),*),
            (true, true, false) => $kernel::<_, true, true, false>($($arg),*),
            (true, false, false) => $kernel::<_, true, false, false>($($arg),*),
            (false, true, false) => $kernel::<_, false, true, false>($($arg),*),
            (false, false, false) => $kernel::<_, false, false, false>($($arg),*),
        }
    };
}

/// Patterns of the pruning step: the parent's vectors and scaling
/// exponents from the children's sides, a pattern rescaled when every
/// category's values are small.
fn prune<const S: usize, const L: bool, const R: bool, const ONE: bool>(
    l: &Side<S>,
    r: &Side<S>,
    out: &mut Clv,
) {
    let k = if ONE { 1 } else { l.k };
    for j in 0..out.scale.len() {
        let o = &mut out.vals[j * k * S..(j + 1) * k * S];
        let mut min_ok = false;
        for c in 0..k {
            let (suml, sumr) = (l.times::<L, ONE>(j, c), r.times::<R, ONE>(j, c));
            for x in 0..S {
                let v = suml[x] * sumr[x];
                o[c * S + x] = v;
                if v > SCALE_THRESHOLD {
                    min_ok = true;
                }
            }
        }
        out.scale[j] = l.scale::<L>(j) + r.scale::<R>(j);
        if !min_ok {
            o.iter_mut().for_each(|v| *v *= SCALE_MULTIPLIER);
            out.scale[j] += 1;
        }
    }
}

/// The Figure-3 sum over a chunk of weights `w`, a pattern's likelihood
/// the average of its categories' terms: `u` read as is, `v` through
/// `P(r_c t)`.
fn lnl_sum<const S: usize, const U: bool, const V: bool, const ONE: bool>(
    u: &Side<S>,
    v: &Side<S>,
    pi: &[f64; S],
    w: &[u32],
) -> f64 {
    let k = if ONE { 1 } else { u.k };
    let term = |j, c| {
        let (lu, inner) = (u.vector::<U, ONE>(j, c), v.times::<V, ONE>(j, c));
        let mut term = 0.0;
        for x in 0..S {
            term += pi[x] * lu[x] * inner[x];
        }
        term
    };
    let ln_min = log_scale();
    let mut sum = 0.0;
    for j in 0..w.len() {
        let exp = u.scale::<U>(j) + v.scale::<V>(j);
        let l = if ONE { term(j, 0) } else { (0..k).map(|c| term(j, c)).sum::<f64>() / k as f64 };
        // term = log(term) + exp * log(minlikelihood); sum += w * term
        let ln = l.max(f64::MIN_POSITIVE).ln() + exp as f64 * ln_min;
        sum += w[j] as f64 * ln;
    }
    sum
}

/// Edge-table rows over a chunk: `u` through `(πL)ᵀ`, `v` through `R`,
/// every category in the one basis.
fn eigen_rows<const S: usize, const U: bool, const V: bool, const ONE: bool>(
    u: &Side<S>,
    v: &Side<S>,
    sums: &mut [f64],
) {
    let k = if ONE { 1 } else { u.k };
    for row in 0..sums.len() / S {
        let (j, c) = if ONE { (row, 0) } else { (row / k, row % k) };
        let (a, b) = (u.times::<U, ONE>(j, c), v.times::<V, ONE>(j, c));
        for x in 0..S {
            sums[row * S + x] = a[x] * b[x];
        }
    }
}

/// `(d1, d2)` of `makenewz` over a chunk's table rows `sums` and weights
/// `w`: a pattern's likelihood and derivatives sum its categories' (the
/// `1/K` cancels in the ratios).
fn derivatives<const S: usize, const ONE: bool>(
    sums: &[f64],
    factors: &PerCategory<[[f64; S]; 3]>,
    w: &[u32],
) -> (f64, f64) {
    let k = if ONE { 1 } else { 1 + factors.rest.len() };
    let mut d1 = 0.0;
    let mut d2 = 0.0;
    for j in 0..w.len() {
        let (mut l, mut dl, mut ddl) = (0.0, 0.0, 0.0);
        for c in 0..k {
            let [e, de, dde] = if ONE || c == 0 { &factors.first } else { &factors.rest[c - 1] };
            let s = vector::<S>(&sums[(j * k + c) * S..(j * k + c + 1) * S]);
            for x in 0..S {
                l += s[x] * e[x];
                dl += s[x] * de[x];
                ddl += s[x] * dde[x];
            }
        }
        let l = l.max(f64::MIN_POSITIVE);
        let wi = w[j] as f64;
        d1 += wi * dl / l;
        d2 += wi * (ddl * l - dl * dl) / (l * l);
    }
    (d1, d2)
}

/// The likelihood engine: a substitution model over `S` states (DNA by
/// default) bound to a pattern-compressed alignment over the same states.
pub struct LikelihoodEngine<'a, M, const S: usize = STATES> {
    model: &'a M,
    data: &'a PatternAlignment<S>,
}

impl<'a, M: SubstModel<S>, const S: usize> LikelihoodEngine<'a, M, S> {
    /// Bind `model` to `data`.
    pub fn new(model: &'a M, data: &'a PatternAlignment<S>) -> Self {
        LikelihoodEngine { model, data }
    }

    /// The pattern-compressed alignment.
    pub fn data(&self) -> &PatternAlignment<S> {
        self.data
    }

    /// The model's rate categories.
    fn categories(&self) -> usize {
        self.model.rates().len()
    }

    /// The tip CLV of `taxon`, its indicator vector in every rate category;
    /// the kernels read an [`Operand::Tip`] instead.
    pub fn tip_clv(&self, taxon: usize) -> Clv {
        let (codes, k) = (self.data.codes(taxon), self.categories());
        let tips = codes.iter().flat_map(|&c| std::iter::repeat_n(tip_vector::<S>(c), k));
        Clv { vals: tips.flatten().collect(), scale: vec![0; codes.len()] }
    }

    /// `op` over the chunk `range`, under category 0's transition `first`
    /// and the others' `rest` (none: `first` serves every category).
    fn side<'s>(
        &'s self,
        op: Operand<&'s Clv>,
        (first, rest): (&'s Transition<S>, &'s [Transition<S>]),
        r: &Range<usize>,
    ) -> Side<'s, S> {
        let n = self.data.n_patterns();
        assert!(r.end <= n, "chunk range {r:?} outside the patterns");
        let k = self.categories();
        assert!(rest.is_empty() || rest.len() + 1 == k, "transitions for another category count");
        let (products, m) = (&first.products, first.m);
        let side = Side { tip: false, codes: &[], vals: &[], scale: &[], m, products, rest, k };
        match op {
            Operand::Tip(taxon) => {
                Side { tip: true, codes: &self.data.codes(taxon)[r.clone()], ..side }
            }
            Operand::Clv(clv) => {
                let width = k * S;
                assert_eq!(clv.vals.len(), clv.n_patterns() * width, "a CLV of another width");
                let base = first_held(clv.n_patterns(), n, r, "a CLV");
                let (lo, hi) = (r.start - base, r.end - base);
                Side { vals: &clv.vals[lo * width..hi * width], scale: &clv.scale[lo..hi], ..side }
            }
        }
    }

    /// The tip codes `op` holds over `range`, as a bit set (none for a
    /// CLV).
    fn held(&self, op: Operand<&Clv>, range: &Range<usize>) -> u32 {
        let Operand::Tip(taxon) = op else { return 0 };
        // A range outside the patterns is `side`'s to refuse.
        let codes = self.data.codes(taxon).get(range.clone()).unwrap_or_default();
        codes.iter().fold(0, |held, &code| held | 1 << (usize::from(code) % CODES))
    }

    /// `P(r_c t)` of every rate category `c`, with every tip product, for
    /// any chunk.
    pub fn transition(&self, t: f64) -> PerCategory<Transition<S>> {
        self.transition_holding(t, Transition::<S>::all())
    }

    /// [`Self::transition`] with the products of only the codes `held`.
    fn transition_holding(&self, t: f64, held: u32) -> PerCategory<Transition<S>> {
        let rates = self.model.rates();
        let p = |c: usize| Transition::new(self.model.prob_matrix(rates[c] * t), held);
        PerCategory { first: p(0), rest: (1..rates.len()).map(p).collect() }
    }

    /// The eigen basis of an [`EdgeTable`], `[(πL)ᵀ, R]`, with every tip
    /// product; every rate category shares it.
    pub fn eigen_basis(&self) -> [Transition<S>; 2] {
        self.basis([Transition::<S>::all(); 2])
    }

    /// The eigen basis with the products of the codes `held` at each end.
    fn basis(&self, held: [u32; 2]) -> [Transition<S>; 2] {
        let Spectrum { left, right, .. } = self.model.spectrum();
        let pi = self.model.base_freqs();
        // `(πL)ᵀ`, so both halves of a pattern's sums are one `matvec`.
        let pi_left = std::array::from_fn(|k| std::array::from_fn(|x| pi[x] * left[x][k]));
        [Transition::new(pi_left, held[0]), Transition::new(right, held[1])]
    }

    /// Newton's factors at length `t`, per rate category `c`:
    /// `[exp(λr_c t), λr_c·exp(λr_c t), (λr_c)²·exp(λr_c t)]`.
    pub fn newton_factors(&self, t: f64) -> PerCategory<[[f64; S]; 3]> {
        let (lam, rates) = (self.model.spectrum().eigenvalues, self.model.rates());
        let factors = |c: usize| {
            let lam = lam.map(|lam| lam * rates[c]);
            let e = lam.map(|lam| (lam * t).exp());
            let de: [f64; S] = std::array::from_fn(|k| lam[k] * e[k]);
            [e, de, std::array::from_fn(|k| lam[k] * de[k])]
        };
        PerCategory { first: factors(0), rest: (1..rates.len()).map(factors).collect() }
    }

    /// Felsenstein pruning step over all patterns: the parent CLV from two
    /// children across branches `t_left` and `t_right`.
    pub fn newview(&self, left: &Clv, t_left: f64, right: &Clv, t_right: f64) -> Clv {
        self.newview_of(left.into(), t_left, right.into(), t_right)
    }

    /// [`Self::newview`] of any two operands.
    fn newview_of(&self, left: Operand<&Clv>, t_l: f64, right: Operand<&Clv>, t_r: f64) -> Clv {
        let n = self.data.n_patterns();
        let mut out = Clv { vals: vec![0.0; n * self.categories() * S], scale: vec![0; n] };
        self.newview_range_into(left, t_l, right, t_r, 0..n, &mut out);
        out
    }

    /// Patterns `range` of a `newview` into the range-sized CLV `out` (any
    /// contents, widened to the model's categories). Each child is a tip, a
    /// full-width CLV or the chunk's own piece of one (holding exactly
    /// `range`); chunks are independent, so a team can split them.
    ///
    /// # Panics
    /// Panics if CLV or output sizes disagree with the alignment/range.
    pub fn newview_range_into<'c>(
        &self,
        left: impl Into<Operand<&'c Clv>>,
        t_left: f64,
        right: impl Into<Operand<&'c Clv>>,
        t_right: f64,
        range: Range<usize>,
        out: &mut Clv,
    ) {
        let (left, right) = (left.into(), right.into());
        let p_left = self.transition_holding(t_left, self.held(left, &range));
        let p_right = self.transition_holding(t_right, self.held(right, &range));
        self.newview_range_with(left, &p_left, right, &p_right, range, out);
    }

    /// The one pruning body: [`Self::newview_range_into`] with each
    /// child's [`Self::transition`] given.
    pub fn newview_range_with<'c>(
        &self,
        left: impl Into<Operand<&'c Clv>>,
        p_left: &PerCategory<Transition<S>>,
        right: impl Into<Operand<&'c Clv>>,
        p_right: &PerCategory<Transition<S>>,
        range: Range<usize>,
        out: &mut Clv,
    ) {
        assert_eq!(out.n_patterns(), range.len(), "chunk output CLV size mismatch");
        out.vals.resize(range.len() * self.categories() * S, 0.0);
        let l = self.side(left.into(), (&p_left.first, &p_left.rest), &range);
        let r = self.side(right.into(), (&p_right.first, &p_right.rest), &range);
        per_pairing!(l, r, prune(&l, &r, out));
    }

    /// Log-likelihood of the tree state summarized by CLVs `u` and `v` at
    /// the two ends of an edge of length `t` — the paper's Figure 3 loop
    /// over all patterns.
    pub fn evaluate(&self, u: &Clv, v: &Clv, t: f64) -> f64 {
        self.evaluate_range(u, v, t, 0..self.data.n_patterns())
    }

    /// The chunked form of [`Self::evaluate`]: the partial log-likelihood
    /// sum over `range`. Summing chunk results over a partition of the
    /// pattern space reproduces [`Self::evaluate`] exactly (modulo FP
    /// reassociation) — this is the loop the paper parallelizes first.
    /// `u` and `v` are each a tip, a full-width CLV or the chunk's own
    /// piece of one (holding exactly `range`).
    pub fn evaluate_range<'c>(
        &self,
        u: impl Into<Operand<&'c Clv>>,
        v: impl Into<Operand<&'c Clv>>,
        t: f64,
        range: Range<usize>,
    ) -> f64 {
        // `u` is read as is: only `v`'s tip products are needed.
        let v = v.into();
        let p = self.transition_holding(t, self.held(v, &range));
        self.evaluate_range_with(u, v, &p, range)
    }

    /// [`Self::evaluate_range`] with the edge's [`Self::transition`] given.
    pub fn evaluate_range_with<'c>(
        &self,
        u: impl Into<Operand<&'c Clv>>,
        v: impl Into<Operand<&'c Clv>>,
        p: &PerCategory<Transition<S>>,
        range: Range<usize>,
    ) -> f64 {
        let pi = self.model.base_freqs();
        let w = &self.data.weights()[range.clone()];
        let u = self.side(u.into(), (&p.first, &p.rest), &range);
        let v = self.side(v.into(), (&p.first, &p.rest), &range);
        per_pairing!(u, v, lnl_sum(&u, &v, &pi, w))
    }

    /// The [`EdgeTable`] of the edge between `u` and `v`, over all
    /// patterns.
    pub fn edge_table<'c>(
        &self,
        u: impl Into<Operand<&'c Clv>>,
        v: impl Into<Operand<&'c Clv>>,
    ) -> EdgeTable {
        let n = self.data.n_patterns();
        let mut table = EdgeTable { sums: vec![0.0; n * self.categories() * S], patterns: n };
        self.edge_table_range(u, v, 0..n, &mut table);
        table
    }

    /// Fill the range-sized table `out` (any contents, widened to the
    /// model's categories) with patterns `range` of the [`EdgeTable`] of
    /// the edge between `u` and `v` — the chunked form of
    /// [`Self::edge_table`]. `u` and `v` are each a tip, a full-width CLV
    /// or the chunk's own piece of one (holding exactly `range`). Scaling
    /// exponents are left out: they multiply a pattern's likelihood and its
    /// derivatives alike, so the ratios `makenewz` sums are free of them.
    ///
    /// # Panics
    /// Panics if CLV or table sizes disagree with the alignment/range.
    pub fn edge_table_range<'c>(
        &self,
        u: impl Into<Operand<&'c Clv>>,
        v: impl Into<Operand<&'c Clv>>,
        range: Range<usize>,
        out: &mut EdgeTable,
    ) {
        let (u, v) = (u.into(), v.into());
        let basis = self.basis([self.held(u, &range), self.held(v, &range)]);
        self.edge_table_range_with(u, v, &basis, range, out);
    }

    /// [`Self::edge_table_range`] in the given [`Self::eigen_basis`].
    pub fn edge_table_range_with<'c>(
        &self,
        u: impl Into<Operand<&'c Clv>>,
        v: impl Into<Operand<&'c Clv>>,
        basis: &[Transition<S>; 2],
        range: Range<usize>,
        out: &mut EdgeTable,
    ) {
        assert_eq!(out.n_patterns(), range.len(), "edge table size mismatch");
        out.sums.resize(range.len() * self.categories() * S, 0.0);
        let u = self.side(u.into(), (&basis[0], &[]), &range);
        let v = self.side(v.into(), (&basis[1], &[]), &range);
        per_pairing!(u, v, eigen_rows(&u, &v, &mut out.sums));
    }

    /// First and second derivatives of the log-likelihood with respect to
    /// the edge's length, at length `t`, summed over `range` (the
    /// off-loadable inner loop of `makenewz`); partial `(d1, d2)` pairs add
    /// across a partition. `table` is the edge's full-width
    /// [`EdgeTable`] or the chunk's own piece of it (holding exactly
    /// `range`).
    pub fn table_derivatives(&self, table: &EdgeTable, t: f64, range: Range<usize>) -> (f64, f64) {
        self.table_derivatives_with(table, &self.newton_factors(t), range)
    }

    /// [`Self::table_derivatives`] with the [`Self::newton_factors`] of
    /// the length given.
    pub fn table_derivatives_with(
        &self,
        table: &EdgeTable,
        factors: &PerCategory<[[f64; S]; 3]>,
        range: Range<usize>,
    ) -> (f64, f64) {
        let (n, k) = (self.data.n_patterns(), self.categories());
        let width = k * S;
        assert_eq!(table.sums.len(), table.patterns * width, "a table of another width");
        assert_eq!(factors.rest.len() + 1, k, "factors of another category count");
        let base = first_held(table.n_patterns(), n, &range, "edge table");
        let sums = &table.sums[(range.start - base) * width..(range.end - base) * width];
        let w = &self.data.weights()[range];
        let sum = if k == 1 { derivatives::<S, true> } else { derivatives::<S, false> };
        sum(sums, factors, w)
    }

    /// Newton–Raphson branch-length optimization (`makenewz`): the length
    /// in `[MIN_BRANCH, MAX_BRANCH]` maximizing the log-likelihood of the
    /// edge between `u` and `v`, starting from `t0` — one [`EdgeTable`],
    /// then [`Newton`] steps over it.
    pub fn makenewz(&self, u: &Clv, v: &Clv, t0: f64) -> f64 {
        self.makenewz_of(u.into(), v.into(), t0)
    }

    /// [`Self::makenewz`] of any two operands.
    fn makenewz_of(&self, u: Operand<&Clv>, v: Operand<&Clv>, t0: f64) -> f64 {
        let table = self.edge_table(u, v);
        let all = 0..self.data.n_patterns();
        newton_branch_length(t0, |t| self.table_derivatives(&table, t, all.clone()))
    }

    /// Directional CLV of `node` seen from `parent` (the full Felsenstein
    /// recursion; a tip's is its indicator CLV, built only here).
    pub fn clv_toward(&self, tree: &Tree, node: usize, parent: usize) -> Clv {
        match traversal::clv_toward(&mut &*self, tree, node, parent) {
            Operand::Tip(taxon) => self.tip_clv(taxon),
            Operand::Clv(clv) => clv,
        }
    }

    /// The log-likelihood of `tree`, evaluated at `edge`.
    pub fn log_likelihood_at(&self, tree: &Tree, edge: EdgeId) -> f64 {
        traversal::score_at(&mut &*self, tree, edge)
    }

    /// The log-likelihood of `tree` (evaluated at edge 0; by likelihood
    /// invariance any edge gives the same value).
    pub fn log_likelihood(&self, tree: &Tree) -> f64 {
        traversal::score(&mut &*self, tree)
    }

    /// Optimize branch lengths until the log-likelihood improves by less
    /// than `epsilon` between passes (at most `max_passes`). Returns the
    /// final log-likelihood.
    pub fn optimize_branches(&self, tree: &mut Tree, max_passes: usize, epsilon: f64) -> f64 {
        traversal::optimize_branches(&mut &*self, tree, max_passes, epsilon)
    }
}

/// The direct engine's kernels on the calling thread, over [`Operand`]s. It
/// keeps no state, so a shared borrow is the provider.
impl<M: SubstModel<S>, const S: usize> Kernels for &LikelihoodEngine<'_, M, S> {
    type Clv = Operand<Clv>;

    fn tip(&mut self, taxon: usize) -> Operand<Clv> {
        Operand::Tip(taxon)
    }

    fn newview(&mut self, left: Self::Clv, t_l: f64, right: Self::Clv, t_r: f64) -> Self::Clv {
        Operand::Clv(self.newview_of(left.as_ref(), t_l, right.as_ref(), t_r))
    }

    fn evaluate(&mut self, u: Operand<Clv>, v: Operand<Clv>, t: f64) -> f64 {
        self.evaluate_range(u.as_ref(), v.as_ref(), t, 0..self.data.n_patterns())
    }

    fn optimize_edge(&mut self, u: Operand<Clv>, v: Operand<Clv>, t0: f64) -> f64 {
        self.makenewz_of(u.as_ref(), v.as_ref(), t0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::model::{Gtr, Jc69, ScaledModel, K80};
    use crate::reference::{brute_force, Partial, Reference};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn toy() -> PatternAlignment {
        let a = Alignment::from_strings(&[
            ("a", "ACGTACGTAA"),
            ("b", "ACGTACGTAC"),
            ("c", "ACGTTCGTAG"),
            ("d", "AAGTTCGAAG"),
        ])
        .unwrap();
        PatternAlignment::compress(&a)
    }

    #[test]
    fn the_arena_drops_what_would_take_it_past_its_cap() {
        let mut arena = ClvArena::new();
        let held: Vec<Clv> = (0..ClvArena::MAX_FREE + 8).map(|_| arena.take(3)).collect();
        held.into_iter().for_each(|clv| arena.put(clv));
        assert_eq!(arena.free.len(), ClvArena::MAX_FREE);
    }

    #[test]
    fn engine_matches_brute_force_on_four_taxa() {
        let data = toy();
        let mut rng = SmallRng::seed_from_u64(11);
        let tree = Tree::random(4, 0.12, &mut rng);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let fast = engine.log_likelihood(&tree);
        let brute = brute_force(&Jc69, &data, &tree);
        assert!(
            (fast - brute).abs() < 1e-9,
            "pruning {fast} vs brute force {brute}"
        );
    }

    #[test]
    fn likelihood_is_invariant_to_evaluation_edge() {
        let data = toy();
        let mut rng = SmallRng::seed_from_u64(3);
        let tree = Tree::random(4, 0.2, &mut rng);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let base = engine.log_likelihood_at(&tree, EdgeId(0));
        for e in tree.edge_ids() {
            let lnl = engine.log_likelihood_at(&tree, e);
            assert!(
                (lnl - base).abs() < 1e-8,
                "edge {e:?}: {lnl} differs from {base}"
            );
        }
    }

    #[test]
    fn evaluate_range_chunks_sum_to_whole() {
        let data = toy();
        let mut rng = SmallRng::seed_from_u64(5);
        let tree = Tree::random(4, 0.15, &mut rng);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let (a, b) = tree.endpoints(EdgeId(0));
        let cu = engine.clv_toward(&tree, a, b);
        let cv = engine.clv_toward(&tree, b, a);
        let t = tree.length(EdgeId(0));
        let whole = engine.evaluate(&cu, &cv, t);
        let n = data.n_patterns();
        for k in [2, 3, 4] {
            let mut sum = 0.0;
            let mut start = 0;
            for c in 0..k {
                let end = n * (c + 1) / k;
                sum += engine.evaluate_range(&cu, &cv, t, start..end);
                start = end;
            }
            assert!((sum - whole).abs() < 1e-10, "k={k}: {sum} vs {whole}");
        }
    }

    #[test]
    fn newview_range_chunks_match_whole() {
        let data = toy();
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let whole = engine.newview(&engine.tip_clv(0), 0.1, &engine.tip_clv(1), 0.2);
        let n = data.n_patterns();
        let (mut vals, mut scale) = (Vec::new(), Vec::new());
        for range in [0..n / 2, n / 2..n] {
            let mut piece = ClvArena::new().take(range.len());
            let (l, r) = (Operand::Tip(0), Operand::Tip(1));
            engine.newview_range_into(l, 0.1, r, 0.2, range, &mut piece);
            let (v, s) = piece.as_raw();
            vals.extend_from_slice(v);
            scale.extend_from_slice(s);
        }
        assert_eq!(whole, Clv::from_raw(vals, scale));
    }

    #[test]
    fn scaling_keeps_deep_trees_finite() {
        // A caterpillar stacks n-2 newview steps end to end; each level
        // shrinks the conditional likelihoods by roughly P(change), so a
        // few hundred levels underflow f64 without rescaling.
        const N: usize = 260;
        let aln = Alignment::synthetic(N, 12, &Jc69, 0.5, 9);
        let data = PatternAlignment::compress(&aln);
        let tree = Tree::caterpillar(N, 1.0);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let lnl = engine.log_likelihood(&tree);
        assert!(lnl.is_finite(), "log-likelihood must stay finite, got {lnl}");
        assert!(lnl < 0.0);
        // And rescaling must actually have occurred for the test to mean
        // anything: evaluate from the pendant edge of tip 0, whose far-side
        // CLV accumulates the whole spine.
        let deep_edge = tree.neighbors(0)[0].1;
        let (a, b) = tree.endpoints(deep_edge);
        let clv_a = engine.clv_toward(&tree, a, b);
        let clv_b = engine.clv_toward(&tree, b, a);
        assert!(
            clv_a.total_scalings() + clv_b.total_scalings() > 0,
            "expected rescaling on a deep caterpillar"
        );
        let lnl2 = engine.evaluate(&clv_a, &clv_b, tree.length(deep_edge));
        assert!((lnl - lnl2).abs() < 1e-6, "evaluation edges disagree: {lnl} vs {lnl2}");
    }

    #[test]
    fn caterpillar_trees_are_valid() {
        for n in [2, 3, 4, 8, 50] {
            let t = Tree::caterpillar(n, 0.1);
            t.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn makenewz_finds_the_mle_branch_length() {
        let data = toy();
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(7);
        let tree = Tree::random(4, 0.1, &mut rng);
        let (a, b) = tree.endpoints(EdgeId(0));
        let cu = engine.clv_toward(&tree, a, b);
        let cv = engine.clv_toward(&tree, b, a);
        let t_opt = engine.makenewz(&cu, &cv, 0.05);
        let lnl_opt = engine.evaluate(&cu, &cv, t_opt);
        // The optimum must beat a grid of alternatives.
        for t in [0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0] {
            let lnl = engine.evaluate(&cu, &cv, t);
            assert!(
                lnl <= lnl_opt + 1e-6,
                "t={t}: lnl {lnl} beats 'optimal' {lnl_opt} at t_opt={t_opt}"
            );
        }
        // And it must agree when started from a very different point.
        let t_opt2 = engine.makenewz(&cu, &cv, 1.5);
        assert!((t_opt - t_opt2).abs() < 1e-4, "{t_opt} vs {t_opt2}");
    }

    /// The models `makenewz` is checked under, by index.
    fn with_model<R>(which: usize, f: &mut dyn FnMut(&dyn SubstModel) -> R) -> R {
        match which {
            0 => f(&Jc69),
            1 => f(&K80::new(2.5)),
            2 => f(&Gtr::example()),
            _ => f(&ScaledModel { inner: Gtr::example(), rate: 2.5 }),
        }
    }

    /// A CLV of `n` random positive patterns, some of them rescaled.
    fn random_clv(n: usize, rng: &mut SmallRng) -> Clv {
        let vals = (0..n * STATES).map(|_| rng.gen_range(1e-3..1.0)).collect();
        let scale = (0..n).map(|_| rng.gen_range(0..3)).collect();
        Clv::from_raw(vals, scale)
    }

    /// The analytic derivatives are those of the log-likelihood `evaluate`
    /// sums, under every model (central finite differences).
    #[test]
    fn table_derivatives_match_finite_differences_of_evaluate() {
        for (which, t) in [(0, 0.2), (1, 0.15), (2, 0.25), (3, 0.1)] {
            with_model(which, &mut |model| {
                let aln = Alignment::synthetic(6, 200, &model, 0.2, 17);
                let data = PatternAlignment::compress(&aln);
                let engine = LikelihoodEngine::new(&model, &data);
                let tree = Tree::random(6, 0.2, &mut SmallRng::seed_from_u64(17));
                let (a, b) = tree.endpoints(EdgeId(0));
                let (cu, cv) = (engine.clv_toward(&tree, a, b), engine.clv_toward(&tree, b, a));
                let table = engine.edge_table(&cu, &cv);
                let (d1, d2) = engine.table_derivatives(&table, t, 0..data.n_patterns());
                let lnl = |t| engine.evaluate(&cu, &cv, t);
                let h = 1e-6;
                let fd1 = (lnl(t + h) - lnl(t - h)) / (2.0 * h);
                let h = 1e-4;
                let fd2 = (lnl(t + h) - 2.0 * lnl(t) + lnl(t - h)) / (h * h);
                let close = |a: f64, b: f64, tol: f64| (a - b).abs() < tol * (1.0 + b.abs());
                assert!(close(d1, fd1, 1e-6), "model {which}: d1 {d1} vs {fd1}");
                assert!(close(d2, fd2, 1e-4), "model {which}: d2 {d2} vs {fd2}");
            });
        }
    }

    proptest! {
        /// The edge table's derivatives are the reference's, from `P(t)`
        /// and the spectrum's `P′`, `P″`: for random CLVs, ranges and
        /// lengths they agree to 1e-9 relative, and the spectrum they rest
        /// on is the model's `P(t)`.
        #[test]
        fn edge_table_derivatives_agree_with_the_reference(
            which in 0usize..4,
            seed in 0u64..u64::MAX,
            n in 1usize..120,
            cut in (0.0f64..1.0, 0.0f64..1.0),
            t in Tree::MIN_BRANCH..MAX_BRANCH,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let aln = Alignment::synthetic(4, n, &Jc69, 0.3, seed);
            let data = PatternAlignment::compress(&aln);
            let n = data.n_patterns();
            let weights: Vec<u32> = (0..n).map(|_| rng.gen_range(1..5)).collect();
            let (u, v) = (random_clv(n, &mut rng), random_clv(n, &mut rng));
            let (lo, hi) = ((cut.0 * n as f64) as usize, (cut.1 * n as f64) as usize);
            let range = lo.min(hi)..lo.max(hi);
            // The reference holds the range's patterns only.
            let in_range = (0..n).map(|j| if range.contains(&j) { weights[j] } else { 0 });
            let in_range = in_range.collect();
            let (window, data) = (data.with_weights(in_range), data.with_weights(weights));
            let piece = |clv: &Clv| -> Partial<STATES> {
                let (vals, scale) = clv.as_raw();
                let vals = vals[range.start * STATES..range.end * STATES].to_vec();
                Partial::from(&Clv::from_raw(vals, scale[range.clone()].to_vec()))
            };
            let (pu, pv) = (piece(&u), piece(&v));
            with_model(which, &mut |model| -> Result<(), TestCaseError> {
                let engine = LikelihoodEngine::new(&model, &data);
                let want = Reference::new(&model, &window).derivatives(&pu, &pv, t);
                let mut table = ClvArena::new().take_table(range.len());
                engine.edge_table_range(&u, &v, range.clone(), &mut table);
                let got = engine.table_derivatives(&table, t, range.clone());
                let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * (1.0 + b.abs());
                let ((d1, d2), (r1, r2)) = (got, want);
                prop_assert!(close(d1, r1), "model {which}: d1 {d1} vs reference {r1}");
                prop_assert!(close(d2, r2), "model {which}: d2 {d2} vs reference {r2}");

                let spectrum = model.spectrum();
                let (q, p) = (spectrum.matrix(spectrum.exps(t)), model.prob_matrix(t));
                for x in 0..STATES {
                    for y in 0..STATES {
                        let off = (q[x][y] - p[x][y]).abs();
                        prop_assert!(off < 1e-12, "model {which}: P[{x}][{y}] off by {off}");
                    }
                }
                Ok(())
            })?;
        }
    }

    /// The kernels' floating-point operation order is frozen: every
    /// `lnl_sum` anchor and replay digest downstream depends on it. A
    /// kernel that reassociates a sum moves these bits before it moves
    /// anything a tolerance would catch.
    #[test]
    fn kernel_float_order_is_pinned_to_the_bit() {
        let aln = Alignment::synthetic_42_sc(&Jc69, 42);
        let data = PatternAlignment::compress(&aln);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = Tree::random(42, 0.1, &mut rng);
        let lnl = engine.log_likelihood(&tree);
        assert_eq!(lnl, f64::from_bits(0xc0f0_88e4_b16b_d613), "log_likelihood");
        let (a, b) = tree.endpoints(EdgeId(0));
        let cu = engine.clv_toward(&tree, a, b);
        let cv = engine.clv_toward(&tree, b, a);
        let t = engine.makenewz(&cu, &cv, 0.05);
        assert_eq!(t, f64::from_bits(0x3fde_87ff_b722_e0c2), "makenewz");
        // Newton over the reference's derivatives, on its own partials:
        // the two lengths differ by rounding only.
        let reference = Reference::new(&Jc69, &data);
        let (pu, pv) = traversal::edge_pair(&mut &reference, &tree, EdgeId(0));
        let t_reference = newton_branch_length(0.05, |t| reference.derivatives(&pu, &pv, t));
        assert!((t - t_reference).abs() < 1e-12, "table {t} vs reference {t_reference}");
    }

    #[test]
    fn optimize_branches_monotonically_improves() {
        let aln = Alignment::synthetic(8, 120, &Jc69, 0.1, 21);
        let data = PatternAlignment::compress(&aln);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut tree = Tree::random(8, 0.5, &mut rng); // deliberately bad lengths
        let before = engine.log_likelihood(&tree);
        let mut prev = before;
        for _ in 0..4 {
            let lnl = engine.optimize_branches(&mut tree, 1, 0.0);
            assert!(lnl >= prev - 1e-6, "pass regressed: {lnl} < {prev}");
            prev = lnl;
        }
        assert!(prev > before + 1.0, "optimization should improve markedly");
    }

    #[test]
    fn optimize_branches_converges_with_epsilon() {
        let data = toy();
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut tree = Tree::random(4, 0.3, &mut rng);
        let lnl = engine.optimize_branches(&mut tree, 50, 1e-8);
        // One more pass should change almost nothing.
        let lnl2 = engine.optimize_branches(&mut tree, 1, 0.0);
        assert!((lnl2 - lnl).abs() < 1e-4);
    }

    #[test]
    fn identical_sequences_favor_zero_branches() {
        let a = Alignment::from_strings(&[
            ("a", "ACGTACGT"),
            ("b", "ACGTACGT"),
            ("c", "ACGTACGT"),
            ("d", "ACGTACGT"),
        ])
        .unwrap();
        let data = PatternAlignment::compress(&a);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut tree = Tree::random(4, 0.2, &mut rng);
        engine.optimize_branches(&mut tree, 30, 1e-9);
        assert!(
            tree.total_length() < 0.01,
            "identical data should shrink branches, total {}",
            tree.total_length()
        );
    }

    #[test]
    fn weights_scale_the_likelihood() {
        let data = toy();
        let doubled = data.with_weights(data.weights().iter().map(|&w| w * 2).collect());
        let mut rng = SmallRng::seed_from_u64(12);
        let tree = Tree::random(4, 0.1, &mut rng);
        let l1 = LikelihoodEngine::new(&Jc69, &data).log_likelihood(&tree);
        let l2 = LikelihoodEngine::new(&Jc69, &doubled).log_likelihood(&tree);
        assert!((l2 - 2.0 * l1).abs() < 1e-8);
    }

    #[test]
    fn zero_weight_patterns_contribute_nothing() {
        let data = toy();
        let mut w: Vec<u32> = data.weights().to_vec();
        let dropped = w[0];
        w[0] = 0;
        let reduced = data.with_weights(w);
        let mut rng = SmallRng::seed_from_u64(13);
        let tree = Tree::random(4, 0.1, &mut rng);
        let full = LikelihoodEngine::new(&Jc69, &data).log_likelihood(&tree);
        let part = LikelihoodEngine::new(&Jc69, &reduced).log_likelihood(&tree);
        assert!(part > full, "dropping {dropped} copies of a pattern must raise lnL");
    }
}
