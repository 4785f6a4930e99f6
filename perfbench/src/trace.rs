//! In-memory spans recorded at layer boundaries.
//!
//! A span has a name, an optional tag (the adjoint's qubit count), a
//! count of work items (batch members), start and end times, and the
//! span that caused it: the innermost open span of the same thread, or —
//! for a thread with no open span, such as a serving worker — the current
//! *phase* span set by the load generator. Recording is off unless
//! [`enable`] was called, and a disabled [`span`] costs one atomic load.
//! Spans stay in memory until [`take`]; [`self_times`] subtracts each
//! span's children from its duration.
//!
//! A serving worker's time between engine calls (queueing, coalescing,
//! decoding, rebinding) runs inside `QuServe`, where no span can reach.
//! [`engine_span`] measures it from the worker's CPU clock instead, so
//! the rest of a load-generator rung is time the worker spent off the
//! CPU: idle, waiting for requests.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are seconds since the first span of the
/// process.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u32,
    /// The causing span's id, 0 for a root.
    pub parent: u32,
    /// Layer boundary name, e.g. `qsim.adjoint`.
    pub name: &'static str,
    /// Name-specific tag (qubit count for `qsim.adjoint`), else 0.
    pub tag: u32,
    /// Work items the call handled (batch members), else 0.
    pub count: u32,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static PHASE: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// A worker thread's CPU clock when its last engine call returned.
    static ENGINE_EXIT_CPU: Cell<Option<f64>> = const { Cell::new(None) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Turns recording on or off for the whole process.
pub fn enable(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
#[derive(Debug)]
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    tag: u32,
    count: u32,
    start: f64,
    /// An engine call on a thread with no open span: its drop notes the
    /// thread's CPU clock for the next [`engine_span`].
    worker: bool,
}

impl Guard {
    /// The span's id, to hand to [`set_phase`].
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = origin().elapsed().as_secs_f64();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        record(Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            tag: self.tag,
            count: self.count,
            start: self.start,
            end,
        });
        if self.worker {
            ENGINE_EXIT_CPU.set(thread_cpu_s());
        }
    }
}

fn record(span: Span) {
    // A poisoned lock only means another thread panicked mid-push; the
    // vector itself is still whole.
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Opens a span named `name` when recording is on.
pub fn span(name: &'static str) -> Option<Guard> {
    span_with(name, 0, 0)
}

/// Opens a span with a tag and a work count when recording is on.
pub fn span_with(name: &'static str, tag: u32, count: u32) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| PHASE.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    Some(Guard {
        id,
        parent,
        name,
        tag,
        count,
        start: origin().elapsed().as_secs_f64(),
        worker: false,
    })
}

/// Opens a span around a call into the quantum engine. On a thread with
/// no open span — a serving worker — it first records the thread's CPU
/// time since its previous engine call returned as a `serve.worker` span
/// ending now, parented to the current phase.
pub fn engine_span(name: &'static str, tag: u32, count: u32) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let worker = STACK.with(|s| s.borrow().is_empty());
    if worker {
        if let (Some(before), Some(now)) = (ENGINE_EXIT_CPU.get(), thread_cpu_s()) {
            let end = origin().elapsed().as_secs_f64();
            record(Span {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                parent: PHASE.load(Ordering::SeqCst),
                name: "serve.worker",
                tag: 0,
                count: 0,
                start: end - (now - before).max(0.0),
                end,
            });
        }
    }
    let mut guard = span_with(name, tag, count)?;
    guard.worker = worker;
    Some(guard)
}

/// CPU time the calling thread has used, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`); `None` where that clock is unavailable.
pub fn thread_cpu_s() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit
        // fields on 64-bit Linux) into memory we own and touches nothing
        // else.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Makes `id` the parent of spans opened on threads with no open span
/// (0 clears it); returns the previous phase, for restoring.
pub fn set_phase(id: u32) -> u32 {
    PHASE.swap(id, Ordering::SeqCst)
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Self time of every span: its duration minus its children's, in
/// seconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u32, f64> {
    let mut out: HashMap<u32, f64> = spans.iter().map(|s| (s.id, s.secs())).collect();
    for s in spans {
        if let Some(parent) = out.get_mut(&s.parent) {
            *parent -= s.secs();
        }
    }
    out
}

/// Sum of self times per span name.
pub fn self_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = HashMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += selfs[&s.id];
    }
    out
}

/// Writes spans as JSON lines (`id`, `parent`, `name`, `tag`, `count`,
/// `start`, `end`).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            r#"{{"id":{},"parent":{},"name":"{}","tag":{},"count":{},"start":{},"end":{}}}"#,
            s.id, s.parent, s.name, s.tag, s.count, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u32, parent: u32, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            tag: 0,
            count: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            mk(1, 0, "root", 0.0, 10.0),
            mk(2, 1, "a", 1.0, 4.0),
            mk(3, 2, "b", 2.0, 3.0),
            mk(4, 1, "a", 5.0, 6.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 6.0);
        assert_eq!(selfs[&2], 2.0);
        assert_eq!(selfs[&3], 1.0);
        let by = self_by_name(&spans);
        assert_eq!(by["a"], 3.0);
        // Self times partition the root's wall time.
        assert_eq!(by.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn engine_span_charges_a_worker_its_cpu_between_calls() {
        enable(true);
        let phase = span("test.phase").expect("recording");
        let prev = set_phase(phase.id());
        let ids = std::thread::spawn(|| {
            let first = engine_span("test.engine", 0, 1).expect("recording").id();
            // CPU work between two engine calls, as a worker's decode.
            let mut x = 0u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            let second = engine_span("test.engine", 0, 1).expect("recording").id();
            (first, second)
        })
        .join()
        .expect("worker thread");
        set_phase(prev);
        let phase_id = phase.id();
        drop(phase);
        let spans = take();
        let engine = |id| spans.iter().find(|s| s.id == id).expect("engine span");
        let (first, second) = (engine(ids.0), engine(ids.1));
        assert_eq!(first.parent, phase_id);
        // Other tests may trace concurrently: look for this worker's gap,
        // a `serve.worker` span of the phase between the two calls.
        assert!(spans.iter().any(|s| s.name == "serve.worker"
            && s.parent == phase_id
            && s.id > first.id
            && s.id < second.id
            && s.secs() > 0.0
            && s.start >= first.end
            && s.end <= second.start));
    }
}
