//! Shared helpers: sample statistics, result checks against independent
//! references, process memory, and the metric record printed at the end.

use std::time::{Duration, Instant};
use taco_tensor::{Csr, Tensor};

/// Relative tolerance of every reference check: `|got - want| <= TOL *
/// (1 + max(|got|, |want|))`. Engine and reference may sum a row's products
/// in different orders, so results agree to rounding, not bit for bit.
pub const TOL: f64 = 1e-9;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` and returns its wall time with its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Quantile `q` (0..=1) of `values` by linear interpolation between the
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean over groups of each group's quantile `q`: the summary of
/// a mix of expression families whose times differ by orders of magnitude.
/// A pooled quantile of such a mix falls on the gap between two families'
/// clusters and jumps between runs; this one moves only when the families
/// do. Empty groups are skipped; 0 when every group is empty.
pub fn geomean_of_quantiles<'a>(groups: impl IntoIterator<Item = &'a Vec<f64>>, q: f64) -> f64 {
    let logs: Vec<f64> = groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|g| quantile(g, q).ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOL * (1.0 + got.abs().max(want.abs()))
}

/// Checks a CSR result tensor against a reference CSR matrix: same shape,
/// same stored coordinates per row (in any order), values within [`TOL`].
pub fn csr_matches(got: &Tensor, want: &Csr) -> bool {
    if got.shape() != [want.nrows(), want.ncols()] || !got.format().is_identity_order() {
        return false;
    }
    let (Ok(pos), Ok(crd)) = (got.pos(1), got.crd(1)) else {
        return false;
    };
    let vals = got.vals();
    if pos.len() != want.nrows() + 1 || crd.len() != vals.len() {
        return false;
    }
    let mut row: Vec<(usize, f64)> = Vec::new();
    for i in 0..want.nrows() {
        row.clear();
        row.extend((pos[i]..pos[i + 1]).map(|p| (crd[p], vals[p])));
        row.sort_by_key(|&(c, _)| c);
        let (wc, wv) = want.row(i);
        let mut expect: Vec<(usize, f64)> = wc.iter().copied().zip(wv.iter().copied()).collect();
        expect.sort_by_key(|&(c, _)| c);
        if row.len() != expect.len()
            || row
                .iter()
                .zip(&expect)
                .any(|(g, w)| g.0 != w.0 || !close(g.1, w.1))
        {
            return false;
        }
    }
    true
}

/// Checks a result tensor against a dense row-major reference.
pub fn dense_matches(got: &Tensor, shape: &[usize], want: &[f64]) -> bool {
    if got.shape() != shape {
        return false;
    }
    let data = if got.format().is_all_dense() && got.format().is_identity_order() {
        std::borrow::Cow::Borrowed(got.vals())
    } else {
        std::borrow::Cow::Owned(got.to_dense().into_data())
    };
    data.len() == want.len() && data.iter().zip(want).all(|(g, w)| close(*g, *w))
}

/// Multiply-adds of `B·C` for CSR operands: for every stored `B(i,k)`, the
/// length of row `k` of `C`.
pub fn spgemm_madds(b: &Csr, c: &Csr) -> u64 {
    b.crd()
        .iter()
        .map(|&k| (c.pos()[k + 1] - c.pos()[k]) as u64)
        .sum()
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the kernel's peak-resident-set counter for this process, so
/// [`peak_rss_mb`] covers only what runs after the call. Returns false where
/// the counter cannot be reset; the peak then covers the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MiB (Linux `VmHWM`), or the
/// current resident size where the peak is not reported.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:")
        .or_else(|| status_kib("VmRSS:"))
        .unwrap_or(0) as f64
        / 1024.0
}

/// One named measurement for the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count or reading).
    pub samples: usize,
}

/// Ordered metric list with a terse constructor.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }
}

/// Correctness tally of one run: every attempted request lands in exactly
/// one of `ok`, `failed`, `shed`, `aborted`, `late` or `wrong`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub shed: u64,
    pub aborted: u64,
    pub late: u64,
    pub wrong: u64,
}

impl Tally {
    /// Requests that did not produce a correct result in time.
    pub fn not_ok(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.shed += other.shed;
        self.aborted += other.aborted;
        self.late += other.late;
        self.wrong += other.wrong;
    }
}

/// A deterministic 64-bit mix of a seed and a stream label (splitmix64), so
/// every generated operand has its own seed derived from the run's seed.
pub fn derive_seed(seed: u64, label: u64) -> u64 {
    let mut z = seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny seeded generator for workload choices (sizes, arrival gaps).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        derive_seed(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
