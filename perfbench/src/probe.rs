//! Measurement instruments that live in the benchmark, not the program:
//! a timing wrapper around the `Policy` trait object, a per-episode
//! layer clock, an allocation counter and the peak-RSS probe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use accu_core::{AttackerView, Policy};
use osn_graph::NodeId;

use crate::report::Metrics;

/// Pass-through allocator that counts allocations on every thread while
/// armed. Disarmed, it costs one relaxed load per allocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Zeroes the allocation counter and starts counting.
pub fn arm_alloc_counter() {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
}

/// Stops counting and returns the allocations seen since arming.
pub fn disarm_alloc_counter() -> u64 {
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Nanoseconds in a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Time spent in each episode layer, summed over the episodes it saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerClock {
    pub episodes: u64,
    pub episode_ns: u64,
    pub sample_ns: u64,
    pub reset_ns: u64,
    pub select_ns: u64,
    pub select_calls: u64,
    pub notify_ns: u64,
    pub notify_calls: u64,
    /// Time resolving requests, when a layer reports it directly; `None`
    /// makes resolve the remainder of episode time.
    pub resolve_ns: Option<u64>,
}

impl LayerClock {
    /// Writes the `core.*` layer metrics: per-episode microseconds,
    /// calls, and each layer's share of episode time.
    ///
    /// With `resolve_ns` unset, resolve is episode time minus the other
    /// four; otherwise reset is (the runner's clocks cover resolve but
    /// not reset).
    pub fn write(&self, m: &mut Metrics) {
        let eps = self.episodes.max(1) as f64;
        let total = self.episode_ns as f64;
        let named = (self.sample_ns + self.select_ns + self.notify_ns) as f64;
        let (reset, resolve) = match self.resolve_ns {
            None => {
                let reset = self.reset_ns as f64;
                (reset, (total - named - reset).max(0.0))
            }
            Some(resolve) => {
                let resolve = resolve as f64;
                ((total - named - resolve).max(0.0), resolve)
            }
        };
        let layers = [
            ("sample", self.sample_ns as f64),
            ("reset", reset),
            ("select", self.select_ns as f64),
            ("notify", self.notify_ns as f64),
            ("resolve", resolve),
        ];
        for (layer, t) in layers {
            m.set(&format!("core.{layer}_us"), t / eps / 1e3);
            m.set(&format!("core.{layer}_share"), t / total.max(1.0));
        }
        m.set("core.select_calls", self.select_calls as f64 / eps);
        m.set("core.notify_calls", self.notify_calls as f64 / eps);
    }
}

/// A `Policy` wrapper timing `reset`, `select` and `observe` (notify)
/// around the wrapped trait object.
pub struct TimedPolicy<'p> {
    inner: &'p mut dyn Policy,
    pub clock: LayerClock,
}

impl<'p> TimedPolicy<'p> {
    pub fn new(inner: &'p mut dyn Policy) -> Self {
        TimedPolicy {
            inner,
            clock: LayerClock::default(),
        }
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset(&mut self, view: &AttackerView<'_>) {
        let t = Instant::now();
        self.inner.reset(view);
        self.clock.reset_ns += ns(t.elapsed());
    }

    fn select(&mut self, view: &AttackerView<'_>) -> Option<NodeId> {
        let t = Instant::now();
        let picked = self.inner.select(view);
        self.clock.select_ns += ns(t.elapsed());
        self.clock.select_calls += 1;
        picked
    }

    fn observe(
        &mut self,
        view: &AttackerView<'_>,
        target: NodeId,
        accepted: bool,
        newly_revealed: &[NodeId],
    ) {
        let t = Instant::now();
        self.inner.observe(view, target, accepted, newly_revealed);
        self.clock.notify_ns += ns(t.elapsed());
        self.clock.notify_calls += 1;
    }
}

/// Writes the `abm.*` ratios from the counters ABM exports through an
/// enabled recorder. `notify_calls` is the number of `observe` calls the
/// counters cover.
pub fn write_abm_ratios(snapshot: &accu_telemetry::Snapshot, notify_calls: u64, m: &mut Metrics) {
    use accu_core::policy::abm_metrics as abm;
    let c = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let pops = c(abm::HEAP_POP);
    m.set("abm.pops_per_select", ratio(pops, c(abm::SELECTS)));
    m.set("abm.stale_skip_ratio", ratio(c(abm::STALE_SKIP), pops));
    m.set(
        "abm.rescores_per_notify",
        ratio(c(abm::RESCORES), notify_calls as f64),
    );
    m.set(
        "abm.rescores_changed_ratio",
        ratio(c(abm::RESCORES_CHANGED), c(abm::RESCORES)),
    );
}

/// Episode-layer times read from the runner's own exported histograms
/// (`sim.*_ns`, `engine.chunk_ns`) in `snapshots`.
///
/// Episode time is chunk time: the attack loop plus sampling and the
/// per-chunk set-up around it, which is what `sample` covers here.
/// Resolve is read directly; reset is what the attack loop spends
/// outside select, notify and resolve.
pub fn runner_clock(snapshots: &[&accu_telemetry::Snapshot]) -> LayerClock {
    use accu_core::{engine_metrics, sim_metrics};
    let hist = |name: &str| {
        snapshots
            .iter()
            .filter_map(|s| s.histogram(name))
            .fold((0u64, 0u64), |(sum, n), h| (sum + h.sum, n + h.count))
    };
    let (chunk_ns, _) = hist(engine_metrics::CHUNK_NS);
    let (loop_ns, _) = hist(sim_metrics::EPISODE_NS);
    let (select_ns, select_calls) = hist(sim_metrics::SELECT_NS);
    let (notify_ns, notify_calls) = hist(sim_metrics::NOTIFY_NS);
    let (resolve_ns, _) = hist(sim_metrics::RESOLVE_NS);
    LayerClock {
        episodes: snapshots
            .iter()
            .filter_map(|s| s.counter(sim_metrics::EPISODES))
            .sum(),
        episode_ns: chunk_ns,
        sample_ns: chunk_ns.saturating_sub(loop_ns),
        reset_ns: 0,
        select_ns,
        select_calls,
        notify_ns,
        notify_calls,
        resolve_ns: Some(resolve_ns),
    }
}

/// Prints the episode-layer budget of a traced run.
pub fn print_layers(m: &Metrics) {
    let g = |n: &str| m.get(n).unwrap_or(f64::NAN);
    println!(
        "episode layers (us/episode, share): {}",
        ["sample", "reset", "select", "notify", "resolve"]
            .iter()
            .map(|l| format!(
                "{l} {:.1} ({:.1}%)",
                g(&format!("core.{l}_us")),
                100.0 * g(&format!("core.{l}_share"))
            ))
            .collect::<Vec<_>>()
            .join(" · ")
    );
    println!(
        "calls/episode: select {:.1} · notify {:.1} · allocs/episode {:.3} · \
         sampling probe: scalar {:.1} us vs batched {:.1} us per episode",
        g("core.select_calls"),
        g("core.notify_calls"),
        g("core.allocs_per_episode"),
        g("core.sample_scalar_us"),
        g("core.sample_batch_us"),
    );
    println!(
        "abm: pops/select {:.2} · stale skips/pop {:.3} · rescores/notify {:.1} · \
         changed/rescore {:.3}",
        g("abm.pops_per_select"),
        g("abm.stale_skip_ratio"),
        g("abm.rescores_per_notify"),
        g("abm.rescores_changed_ratio"),
    );
}
