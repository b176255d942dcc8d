//! The whole causal log of a fig8-sized run, pinned.
//!
//! The run-record pins cover only the marks on the critical path; these
//! pins cover every provenance node and every time mark the collector
//! stores, on the single heap and on a two-shard federated world (whose
//! per-lane logs merge into one). Any change to how the log is stored or
//! merged must leave these digests exactly where they are.

use bench::{run_latency, LatencyParams};
use hpx_lci_repro::parcelport::Engine;
use hpx_lci_repro::simcore::causal::MarkKind;
use hpx_lci_repro::simcore::shard::RunMode;
use telemetry::{RunMeta, RunRecord, Telemetry};

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

fn kind_code(kind: MarkKind) -> u64 {
    match kind {
        MarkKind::Wait => 0,
        MarkKind::Hold => 1,
        MarkKind::Work => 2,
        MarkKind::Wire => 3,
    }
}

/// `(nodes, marks, digest)` of the causal log a collector's run record
/// holds: every node's `(at, parent)` in node order, then every mark's
/// `(owner, label, kind, start, end, fixed)` in owner order.
fn log_digest(tel: &Telemetry) -> (usize, usize, u64) {
    let rec = RunRecord::capture(tel, RunMeta::default());
    let data = rec.data.as_deref().expect("a captured record carries its stores");
    let log = data.causal.as_ref().expect("events were dispatched");
    assert!(!log.truncated(), "causal log hit its memory guard");
    let mut h = Fnv(0xcbf29ce484222325);
    log.with_view(|view| {
        for n in view.nodes() {
            h.word(n.at);
            h.word(n.parent);
        }
        let ids = (0..view.nodes().len() as u64).map(|i| view.base() + i);
        for m in ids.flat_map(|id| view.marks_of(id)) {
            h.word(m.owner);
            h.text(m.label);
            h.word(kind_code(m.kind));
            h.word(m.start);
            h.word(m.end);
            h.word(m.fixed);
        }
    });
    (log.node_count(), log.mark_count(), h.0)
}

/// fig8's instrumented pass at its smallest size (window 64, 25 steps)
/// on the paper's best LCI configuration, with a collector on.
fn fig8_log(engine: Engine) -> (usize, usize, u64) {
    let tel = telemetry::enable();
    let mut p = LatencyParams::new("lci_psr_cq_pin_i".parse().unwrap(), 8);
    p.window = 64;
    p.steps = 25;
    p.engine = engine;
    let r = run_latency(&p);
    telemetry::disable();
    assert!(r.completed, "{engine:?}: run hit the safety deadline");
    log_digest(&tel)
}

#[test]
fn single_heap_causal_log_is_pinned() {
    assert_eq!(fig8_log(Engine::SingleHeap), (14_000, 70_480, 0xc8e445ff1411ba6c));
}

/// Both executors merge the two lanes' logs into the same log.
#[test]
fn merged_federated_causal_log_is_pinned() {
    for mode in [RunMode::Sequential, RunMode::Threaded] {
        let engine = Engine::Federated { shards: 2, mode: Some(mode) };
        assert_eq!(fig8_log(engine), (14_052, 70_706, 0x8341ffeea6862a1f), "{mode:?}");
    }
}
