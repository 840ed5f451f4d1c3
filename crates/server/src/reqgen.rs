//! Deterministic request-stream generation.
//!
//! The evaluation's request mixes are generated from a seed so the same
//! stream can be replayed exactly — across cold vs pooled modes, across
//! configurations, and across the two runs of the observational-equivalence
//! test.  The generator is a splitmix64, independent of the workloads' own
//! `rng_next` so streams do not perturb in-VM randomness.

use confllvm_workloads::{ldap, nginx};

use crate::sched::{Arrival, ArrivalPlan};
use crate::session::Request;

/// The request mixes of the serving benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// File-serving requests over `files` private documents of
    /// `response_size` bytes each (the NGINX stand-in).
    NginxFiles { files: usize, response_size: usize },
    /// Directory lookups over `entries` populated entries; `hit_pct` percent
    /// of the lookups target present keys, the rest absent ones (the
    /// OpenLDAP stand-in's hit/miss mixes).
    LdapMix { entries: usize, hit_pct: u8 },
}

/// Deterministic generator (splitmix64).
#[derive(Debug, Clone)]
pub struct RequestGen {
    state: u64,
}

impl RequestGen {
    pub fn new(seed: u64) -> Self {
        RequestGen {
            state: seed.wrapping_add(0x9e3779b97f4a7c15),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// A uniform sample in `[0, 1)` from the top 53 bits — the standard
    /// bit-exact construction, so samples are byte-identical across hosts.
    fn next_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// Generate `count` requests of the given mix.
    pub fn stream(&mut self, kind: StreamKind, count: usize) -> Vec<Request> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(match kind {
                StreamKind::NginxFiles {
                    files,
                    response_size,
                } => {
                    let doc = self.below(files.max(1));
                    Request::with_input(
                        nginx::REQUEST_ENTRY,
                        &[response_size as i64],
                        nginx::request_bytes(doc),
                    )
                }
                StreamKind::LdapMix { entries, hit_pct } => {
                    let roll = self.below(100) as u8;
                    let idx = self.below(entries.max(1));
                    let key = if roll < hit_pct {
                        ldap::present_key(idx)
                    } else {
                        ldap::absent_key(idx)
                    };
                    Request::new(ldap::REQUEST_ENTRY, &[key])
                }
            });
        }
        out
    }

    /// Generate a bursty, popularity-skewed arrival schedule for the scale
    /// experiments.  Time advances in admission windows; `on_windows`
    /// windows at `on_per_window` arrivals alternate with `off_windows`
    /// windows at `off_per_window` (the classic on/off burst model), and
    /// each arrival picks its session zipfian-skewed (s = 1).
    /// Request indices are per-session occurrence counters, so a session's
    /// requests arrive in order and
    /// [`ArrivalPlan::per_session_counts`] tells the caller exactly how many
    /// requests to generate per session.
    pub fn arrival_plan(&mut self, opts: &ArrivalOptions) -> ArrivalPlan {
        let sessions = opts.sessions.max(1);
        let window = opts.window_cycles.max(1);
        let zipf = ZipfCdf::new(sessions);
        let period = (opts.on_windows + opts.off_windows).max(1);
        let mut counts = vec![0usize; sessions];
        let mut arrivals = Vec::with_capacity(opts.arrivals);
        let mut w: u64 = 0;
        while arrivals.len() < opts.arrivals {
            let phase = w % period as u64;
            let k = if phase < opts.on_windows as u64 {
                opts.on_per_window
            } else {
                opts.off_per_window
            };
            if opts.on_per_window == 0 && opts.off_per_window == 0 {
                break; // nothing will ever arrive
            }
            let start = w * window;
            for j in 0..k {
                if arrivals.len() >= opts.arrivals {
                    break;
                }
                let session = zipf.sample(self.next_f64());
                let request = counts[session];
                counts[session] += 1;
                arrivals.push(Arrival {
                    // Spread the window's burst evenly across it.
                    vtime: start + (j as u64 * window) / k as u64,
                    session,
                    request,
                });
            }
            w += 1;
        }
        ArrivalPlan { arrivals }
    }
}

/// Knobs for [`RequestGen::arrival_plan`].
#[derive(Debug, Clone, Copy)]
pub struct ArrivalOptions {
    /// Session population to draw from.
    pub sessions: usize,
    /// Total arrivals to generate.
    pub arrivals: usize,
    /// Admission-window width in simulated cycles (match the scheduler's).
    pub window_cycles: u64,
    /// Burst shape: `on_windows` windows at `on_per_window` arrivals each,
    /// then `off_windows` at `off_per_window`, repeating.
    pub on_windows: u32,
    pub off_windows: u32,
    pub on_per_window: usize,
    pub off_per_window: usize,
}

impl Default for ArrivalOptions {
    fn default() -> Self {
        ArrivalOptions {
            sessions: 64,
            arrivals: 256,
            window_cycles: 50_000,
            on_windows: 2,
            off_windows: 2,
            on_per_window: 12,
            off_per_window: 2,
        }
    }
}

/// Zipfian (s = 1) cumulative distribution over `n` ranks: rank `i` has
/// weight `1/(i+1)`.  Built from plain additions and one division per rank —
/// no `powf` — so the table, and therefore every sampled stream, is
/// byte-identical across platforms (goldens depend on this).
#[derive(Debug, Clone)]
pub struct ZipfCdf {
    cdf: Vec<f64>,
}

impl ZipfCdf {
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / (i + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfCdf { cdf }
    }

    /// Map a uniform `u` in `[0, 1)` to a rank (0 = most popular).
    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let kind = StreamKind::LdapMix {
            entries: 64,
            hit_pct: 50,
        };
        let a = RequestGen::new(42).stream(kind, 32);
        let b = RequestGen::new(42).stream(kind, 32);
        assert_eq!(a, b);
        let c = RequestGen::new(43).stream(kind, 32);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn hit_pct_controls_the_mix() {
        let all_hits = RequestGen::new(7).stream(
            StreamKind::LdapMix {
                entries: 16,
                hit_pct: 100,
            },
            50,
        );
        assert!(
            all_hits.iter().all(|r| (r.args[0] - 3) % 7 == 0),
            "all keys present-shaped"
        );
        let no_hits = RequestGen::new(7).stream(
            StreamKind::LdapMix {
                entries: 16,
                hit_pct: 0,
            },
            50,
        );
        assert!(no_hits.iter().all(|r| (r.args[0] - 5) % 7 == 0));
    }

    #[test]
    fn nginx_stream_targets_existing_docs() {
        let reqs = RequestGen::new(1).stream(
            StreamKind::NginxFiles {
                files: 4,
                response_size: 512,
            },
            20,
        );
        for r in &reqs {
            assert_eq!(r.entry, nginx::REQUEST_ENTRY);
            assert_eq!(r.args, vec![512]);
            let input = r.input.as_ref().unwrap();
            assert!(input.starts_with(b"GET doc") && input.ends_with(b"\0"));
        }
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let z = ZipfCdf::new(100);
        let mut gen = RequestGen::new(11);
        let mut hits = vec![0usize; 100];
        for _ in 0..10_000 {
            hits[z.sample(gen.next_f64())] += 1;
        }
        // Rank 0 carries ~1/H(100) ≈ 19% of the mass; uniform would be 1%.
        assert!(hits[0] > 1500, "rank 0 got {}", hits[0]);
        assert!(hits[0] > 4 * hits[9].max(1), "zipf tail must fall off");
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.999_999_9), 99);
    }

    #[test]
    fn arrival_plan_is_deterministic_bursty_and_ordered() {
        let opts = ArrivalOptions {
            sessions: 32,
            arrivals: 200,
            ..Default::default()
        };
        let a = RequestGen::new(5).arrival_plan(&opts);
        let b = RequestGen::new(5).arrival_plan(&opts);
        assert_eq!(a.arrivals, b.arrivals, "same seed, same plan");
        assert_eq!(a.len(), 200);
        // vtimes non-decreasing; request indices per-session sequential.
        let mut last = 0;
        let mut next_req = vec![0usize; 32];
        for arr in &a.arrivals {
            assert!(arr.vtime >= last);
            last = arr.vtime;
            assert_eq!(arr.request, next_req[arr.session]);
            next_req[arr.session] += 1;
        }
        assert_eq!(
            a.per_session_counts(32).iter().sum::<usize>(),
            200,
            "counts must cover every arrival"
        );
        // Bursty: on-windows carry 6x the arrivals of off-windows, so the
        // per-window arrival counts are not all equal.
        let window = opts.window_cycles;
        let mut per_window = std::collections::HashMap::new();
        for arr in &a.arrivals {
            *per_window.entry(arr.vtime / window).or_insert(0usize) += 1;
        }
        let max = per_window.values().max().unwrap();
        let min = per_window.values().min().unwrap();
        assert!(max > min, "on/off phases must differ ({max} vs {min})");
        // Zipf: the most popular session dominates a uniform share.
        let counts = a.per_session_counts(32);
        assert!(counts[0] > 200 / 32 * 2, "rank 0 got {}", counts[0]);
    }
}
