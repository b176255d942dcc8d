//! Fabric-scale congestion sweeps: 64/256/1024 localities over the
//! switched topologies (fat-tree and dragonfly).
//!
//! Two experiment shapes per `(topology, scale)` pair, both fig-1/fig-8
//! flavoured but driven at the fabric layer so the sweep reaches 1024
//! NICs without instantiating 32k simulated cores:
//!
//! * **uniform** — every host injects 8 B packets at a fixed per-node
//!   rate to uniformly random peers; the sweep walks the rate grid until
//!   achieved throughput falls off offered load (the congestion knee,
//!   fig-1's saturation shape at cluster scale);
//! * **hot-spot** — a quarter of all traffic targets host 0; the victim
//!   edge downlink saturates long before any NIC does, and the p50/p99/
//!   p999 latency spread (fig-8's window shape) shows the incast tail.
//!   The hot-spot pass runs under both static (D-mod-k) and adaptive
//!   least-loaded routing.
//!
//! One hot-spot run per pair is re-run instrumented: the contention
//! report must attribute the knee to *named switch ports* (`fab.*` rows
//! with non-zero wait) — that attribution lands in `BENCH_fabric.json`
//! as `knee_port`, and the run nominated by `--trace` writes a Chrome
//! trace whose per-port counter tracks `trace_check --require-counters`
//! validates in CI.
//!
//! Exit code 1 if any sweep fails to show a measurable knee or the
//! contention report fails to attribute it to a switch port.

use bench::cli::{instrumented_for, TraceArgs};
use bench::trace::TraceSink;
use bench::{bench_scale, fmt_rate};
use bytes::Bytes;
use netsim::{Fabric, Packet, RoutingPolicy, Topology, WireModel};
use parcelport::Engine;
use simcore::{Sim, SimTime};
use telemetry::Histogram;

/// Per-node attempted injection rates (msgs/s). The expanse NIC tops out
/// near 7 M msg/s per node, so the tail of the grid is firmly past the
/// knee on every topology.
const RATE_GRID: [f64; 7] = [100e3, 400e3, 1.6e6, 3.2e6, 6.4e6, 9.6e6, 12.8e6];

/// Hot-spot per-node rate: far below any NIC limit, so the only queueing
/// is inside the fabric, on the victim's downlink.
const HOTSPOT_RATE: f64 = 800e3;
/// Fraction of hot-spot traffic aimed at the victim (host 0).
const HOTSPOT_FRACTION: f64 = 0.25;

/// Achieved/offered ratio below which a grid point counts as saturated.
const KNEE_RATIO: f64 = 0.9;

/// Deterministic per-run LCG (same constants as the other harnesses).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Latency distribution and achieved throughput of one open-loop run.
struct RunResult {
    hist: Histogram,
    achieved_total: f64,
    fabric: Fabric,
}

/// Inject `msgs_per_node` 8 B packets from every host at `rate` msgs/s
/// per node and record post-to-delivery latency. `hotspot` routes a
/// fraction of the traffic at host 0; otherwise destinations are
/// uniformly random. Injection is open-loop: the intended post instants
/// never move, so overload shows up as latency, not as back-pressure.
fn run_load(
    topology: &Topology,
    hosts: usize,
    rate: f64,
    msgs_per_node: usize,
    hotspot: bool,
    seed: u64,
) -> RunResult {
    let model = WireModel::expanse();
    let mut fabric = Fabric::with_topology(hosts, model, topology);
    let mut sim = Sim::new(seed);
    let mut rng = Lcg(seed | 1);
    let mut hist = Histogram::new();
    let period = 1e9 / rate;
    let mut first_inject = u64::MAX;
    let mut last_deliver = 0u64;
    let mut sent = 0u64;
    for k in 0..msgs_per_node {
        for src in 0..hosts {
            // Small per-source stagger (< one period at every grid rate)
            // keeps the whole machine from injecting in lock-step while
            // preserving the global time-sorted send order.
            let at = (k as f64 * period) as u64 + (src as u64 % 13);
            let r = rng.next();
            let dst = if hotspot && src != 0 && (r & 1023) < (HOTSPOT_FRACTION * 1024.0) as u64 {
                0
            } else {
                let d = (r >> 10) as usize % (hosts - 1);
                if d >= src {
                    d + 1
                } else {
                    d
                }
            };
            let pkt = Packet {
                src,
                dst,
                ctx: 0,
                kind: 0,
                tag: sent,
                imm: 0,
                data: Bytes::from_static(b"fab-load"),
            };
            let out = fabric.send(&mut sim, 0, SimTime::from_nanos(at), pkt);
            hist.record(out.deliver_at.as_nanos() - at);
            telemetry::hist_record_at(
                "fabric.delivery_ns",
                out.deliver_at.as_nanos() - at,
                out.deliver_at,
            );
            first_inject = first_inject.min(at);
            last_deliver = last_deliver.max(out.deliver_at.as_nanos());
            sent += 1;
        }
    }
    let span_ns = (last_deliver - first_inject).max(1);
    RunResult { hist, achieved_total: sent as f64 * 1e9 / span_ns as f64, fabric }
}

/// Swap the routing policy of a topology description.
fn with_routing(t: &Topology, routing: RoutingPolicy) -> Topology {
    match t.clone() {
        Topology::FatTree(mut p) => {
            p.routing = routing;
            Topology::FatTree(p)
        }
        Topology::Dragonfly(mut p) => {
            p.routing = routing;
            Topology::Dragonfly(p)
        }
        direct => direct,
    }
}

fn hist_json(h: &Histogram) -> String {
    format!(
        "{{\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"mean_ns\":{:.1},\"max_ns\":{}}}",
        h.p50(),
        h.p99(),
        h.p999(),
        h.mean(),
        h.max()
    )
}

struct SweepDoc {
    json: String,
    has_knee: bool,
    knee_port: Option<String>,
}

/// Run the full uniform sweep + hot-spot passes for one (topology,
/// scale) pair. `nominate_trace` marks this pair's instrumented run as
/// the one that writes the `--trace` Chrome file.
fn run_sweep(
    topology: &Topology,
    hosts: usize,
    msgs_per_node: usize,
    seed: u64,
    targs: &TraceArgs,
    sink: &mut TraceSink,
    nominate_trace: bool,
) -> SweepDoc {
    let label = topology.label();
    let (switches, lookahead) = {
        let fab = topology.build(hosts).expect("sweeps run on switched topologies");
        (fab.graph().switches(), fab.min_first_hop_latency())
    };
    println!("== {label} x {hosts} localities ({switches} switches, lookahead {lookahead} ns) ==");

    // Uniform rate sweep: walk the grid until achieved falls off offered.
    let mut points = Vec::new();
    let mut knee: Option<(usize, f64)> = None;
    for (i, &rate) in RATE_GRID.iter().enumerate() {
        let r = run_load(topology, hosts, rate, msgs_per_node, false, seed + i as u64);
        let offered_total = rate * hosts as f64;
        if knee.is_none() && r.achieved_total < KNEE_RATIO * offered_total {
            knee = Some((i, offered_total));
        }
        println!(
            "  uniform {:>10}/node: achieved {:>7.2} M/s of {:>7.2} M/s offered, \
             p50 {} ns p99 {} ns p999 {} ns",
            fmt_rate(Some(rate)),
            r.achieved_total / 1e6,
            offered_total / 1e6,
            r.hist.p50(),
            r.hist.p99(),
            r.hist.p999(),
        );
        points.push(format!(
            "{{\"offered_per_node\":{rate},\"offered_total\":{offered_total},\
             \"achieved_total\":{:.1},\"latency\":{}}}",
            r.achieved_total,
            hist_json(&r.hist)
        ));
    }

    // Hot-spot tails under both routing policies.
    let mut hot = Vec::new();
    for routing in [RoutingPolicy::Static, RoutingPolicy::Adaptive] {
        let topo = with_routing(topology, routing);
        let r = run_load(&topo, hosts, HOTSPOT_RATE, msgs_per_node, true, seed + 97);
        let name = match routing {
            RoutingPolicy::Static => "static",
            RoutingPolicy::Adaptive => "adaptive",
        };
        println!(
            "  hotspot ({name:>8}): p50 {} ns p99 {} ns p999 {} ns",
            r.hist.p50(),
            r.hist.p99(),
            r.hist.p999(),
        );
        hot.push(format!("\"{name}\":{}", hist_json(&r.hist)));
    }

    // Instrumented hot-spot run: the contention report must attribute
    // the queueing to named switch ports, and the nominated run writes
    // the Chrome trace with per-port counter tracks.
    let config = format!("fabric-{label}-{hosts}-hotspot");
    let (r, tel) = instrumented_for(targs, || {
        run_load(topology, hosts, HOTSPOT_RATE, msgs_per_node, true, seed + 97)
    });
    if nominate_trace {
        sink.set_params(&[
            ("topology", label.to_string()),
            ("hosts", hosts.to_string()),
            ("msgs_per_node", msgs_per_node.to_string()),
        ]);
    }
    let rec = sink.emit(&tel, &config, nominate_trace);
    let knee_port = rec
        .resources
        .iter()
        .filter(|r| r.name.starts_with("fab."))
        .max_by_key(|r| r.wait_ns)
        .filter(|r| r.wait_ns > 0)
        .map(|r| (r.name.clone(), r.wait_ns));
    match &knee_port {
        Some((name, wait)) => {
            println!("  congestion attributed to {name} ({wait} ns total port wait)")
        }
        None => println!("  !! contention report has no fab.* rows with wait"),
    }

    // Busiest ports of the instrumented run, by queueing.
    let top_ports: Vec<String> = {
        let topo = r.fabric.topology().expect("instrumented run used a switched fabric");
        topo.ranked_ports()
            .iter()
            .take(5)
            .map(|(name, c)| {
                format!(
                    "{{\"name\":\"{name}\",\"xmit_pkts\":{},\"xmit_bytes\":{},\
                     \"xmit_wait_ns\":{}}}",
                    c.xmit_pkts, c.xmit_bytes, c.xmit_wait_ns
                )
            })
            .collect()
    };

    let knee_json = match knee {
        Some((i, offered)) => format!("{{\"index\":{i},\"offered_total\":{offered}}}"),
        None => "null".to_string(),
    };
    let knee_port_json = match &knee_port {
        Some((name, wait)) => format!("{{\"name\":\"{name}\",\"total_wait_ns\":{wait}}}"),
        None => "null".to_string(),
    };
    SweepDoc {
        json: format!(
            "{{\"topology\":\"{label}\",\"hosts\":{hosts},\"switches\":{switches},\
             \"min_lookahead_ns\":{lookahead},\"msgs_per_node\":{msgs_per_node},\
             \"uniform\":{{\"points\":[{}],\"knee\":{knee_json}}},\
             \"hotspot\":{{\"victim\":0,\"fraction\":{HOTSPOT_FRACTION},\
             \"rate_per_node\":{HOTSPOT_RATE},{}}},\
             \"knee_port\":{knee_port_json},\"top_ports\":[{}]}}",
            points.join(","),
            hot.join(","),
            top_ports.join(",")
        ),
        has_knee: knee.is_some(),
        knee_port: knee_port.map(|(n, _)| n),
    }
}

fn main() {
    let targs = TraceArgs::parse();
    if targs.engine() != Engine::SingleHeap {
        // The sweep drives the netsim switch model directly: there is no
        // World/Locality layer to federate, and a run record must not name
        // an engine the run never used.
        eprintln!("fabric_sweep has no world to shard: --shards and --run-mode are not supported");
        std::process::exit(2);
    }
    let mut sink = TraceSink::new(&targs, "fabric_sweep");
    let scale = bench_scale();
    let msgs_per_node = ((200.0 * scale) as usize).max(10);
    // Quick runs (CI smoke) keep the 64-locality pair only; the full
    // sweep covers the 64 -> 1024 scaling story of both topologies.
    let scales: Vec<usize> = if scale < 0.5 { vec![64] } else { vec![64, 256, 1024] };

    let mut docs = Vec::new();
    let mut ok = true;
    let mut first = true;
    for &hosts in &scales {
        for topology in [Topology::fat_tree_for(hosts), Topology::dragonfly_for(hosts)] {
            let doc =
                run_sweep(&topology, hosts, msgs_per_node, 0xFAB5_0001, &targs, &mut sink, first);
            first = false;
            if !doc.has_knee {
                eprintln!("FAIL: {} x {hosts} shows no congestion knee", topology.label());
                ok = false;
            }
            if doc.knee_port.is_none() {
                eprintln!(
                    "FAIL: {} x {hosts}: knee not attributed to a switch port",
                    topology.label()
                );
                ok = false;
            }
            docs.push(doc.json);
            println!();
        }
    }
    sink.finish();

    let json = format!(
        "{{\"benchmark\":\"fabric_sweep\",\"scale\":{scale},\"wire\":\"expanse-hdr\",\
         \"msgs_per_node\":{msgs_per_node},\"hotspot_fraction\":{HOTSPOT_FRACTION},\
         \"sweeps\":[{}]}}",
        docs.join(",")
    );
    std::fs::write("BENCH_fabric.json", &json).expect("write BENCH_fabric.json");
    println!("wrote BENCH_fabric.json ({} sweeps)", docs.len());
    if !ok {
        std::process::exit(1);
    }
}
