//! Criterion micro-benchmarks of the hot data structures: host-side cost
//! of the simulator's building blocks (these bound how large a virtual
//! experiment can be run per host-second).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::rc::Rc;

use amt::parcel::Parcel;
use amt::serialize::HpxMessage;
use bytes::Bytes;
use lci::{Comp, CompQueue, Request};
use parcelport::header::{plan_message, HeaderInfo, MAX_HEADER_SIZE};
use simcore::{CostModel, Sim, SimResource, SimTime};

fn bench_sim_events(c: &mut Criterion) {
    c.bench_function("sim/schedule+run 1000 events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0);
            for i in 0..1000u64 {
                sim.schedule_in(i, |_| {});
            }
            sim.run();
            sim.now()
        })
    });
}

fn bench_resource(c: &mut Criterion) {
    c.bench_function("simcore/resource access alternating cores", |b| {
        let mut r = SimResource::new("bench", 300);
        let mut t = SimTime::ZERO;
        let mut core = 0usize;
        b.iter(|| {
            core ^= 1;
            t = r.access(t, core, 50);
            t
        })
    });
}

fn bench_cq(c: &mut Criterion) {
    c.bench_function("lci/cq push+pop", |b| {
        let cq = CompQueue::new("bench", 300);
        let cost = CostModel::default();
        let mut sim = Sim::new(0);
        b.iter(|| {
            let req = Request {
                rank: 0,
                tag: 1,
                data: Bytes::new(),
                user: 7,
                arrived: simcore::SimTime::ZERO,
            };
            cq.push(&mut sim, 0, &cost, req);
            cq.pop(&mut sim, 1, &cost).0
        })
    });
}

fn bench_comp_signal(c: &mut Criterion) {
    c.bench_function("lci/synchronizer signal+test", |b| {
        let cost = CostModel::default();
        let mut sim = Sim::new(0);
        b.iter_batched(
            || lci::Synchronizer::new(1, 300),
            |sync| {
                let req = Request {
                    rank: 0,
                    tag: 0,
                    data: Bytes::new(),
                    user: 0,
                    arrived: simcore::SimTime::ZERO,
                };
                sync.signal(&mut sim, 0, &cost, req);
                sync.test(&mut sim, 1, &cost).0
            },
            BatchSize::SmallInput,
        )
    });
    // Comp enum dispatch overhead reference point.
    c.bench_function("lci/comp clone", |b| {
        let cq = CompQueue::new("bench", 0);
        let comp = Comp::Cq(cq);
        b.iter(|| comp.clone())
    });
}

fn bench_hpx_codec(c: &mut Criterion) {
    let small = vec![Parcel::new(3, Bytes::from(vec![1u8; 64])); 8];
    let large = vec![Parcel::new(4, Bytes::from(vec![2u8; 32 * 1024])); 4];
    c.bench_function("amt/encode 8 small parcels", |b| b.iter(|| HpxMessage::encode(&small, 8192)));
    c.bench_function("amt/encode 4 zero-copy parcels", |b| {
        b.iter(|| HpxMessage::encode(&large, 8192))
    });
    let msg = HpxMessage::encode(&small, 8192);
    c.bench_function("amt/decode 8 small parcels", |b| b.iter(|| msg.decode()));
}

fn bench_header(c: &mut Criterion) {
    let parcels =
        [Parcel::new(0, vec![Bytes::from(vec![1u8; 256]), Bytes::from(vec![2u8; 20_000])])];
    let mut msg = HpxMessage::encode(&parcels, 8192);
    c.bench_function("parcelport/plan+decode header", |b| {
        b.iter(|| {
            let plan = plan_message(&mut msg, 42, MAX_HEADER_SIZE, true);
            HeaderInfo::decode(&plan.header).tag_base
        })
    });
}

fn bench_octree(c: &mut Criterion) {
    c.bench_function("octotiger/build level-4 tree + partition", |b| {
        b.iter(|| {
            let t = octotiger_mini::Octree::build(4);
            let p = octotiger_mini::partition(&t, 8);
            (t.len(), p.owner(0))
        })
    });
}

fn bench_cost_model(c: &mut Criterion) {
    let cost = Rc::new(CostModel::default());
    c.bench_function("simcore/cost memcpy+serialize", |b| {
        b.iter(|| cost.memcpy(16 * 1024) + cost.serialize(512))
    });
}

criterion_group!(
    benches,
    bench_sim_events,
    bench_resource,
    bench_cq,
    bench_comp_signal,
    bench_hpx_codec,
    bench_header,
    bench_octree,
    bench_cost_model
);
criterion_main!(benches);
