//! TAB-ERB (wall-clock side): throughput of the four §3 bit operations
//! on the simulated device. Simulated-time ratios live in `tab_timing`;
//! this bench tracks the simulator's own cost so regressions in the
//! substrate are visible.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sero_media::mfm::ReadChannel;
use sero_probe::device::ProbeDevice;
use std::hint::black_box;
use std::time::Duration;

fn bench_bitops(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitops");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));

    group.bench_function("mrb", |b| {
        let mut dev = ProbeDevice::builder().blocks(4).build();
        dev.mwb(0, true);
        b.iter(|| black_box(dev.mrb(black_box(0))));
    });

    group.bench_function("mwb", |b| {
        let mut dev = ProbeDevice::builder().blocks(4).build();
        let mut bit = false;
        b.iter(|| {
            bit = !bit;
            black_box(dev.mwb(black_box(1), bit))
        });
    });

    group.bench_function("erb_unheated", |b| {
        let mut dev = ProbeDevice::builder().blocks(4).build();
        dev.mwb(2, true);
        b.iter(|| black_box(dev.erb(black_box(2))));
    });

    group.bench_function("erb_heated", |b| {
        let mut dev = ProbeDevice::builder().blocks(4).build();
        dev.ewb(3);
        b.iter(|| black_box(dev.erb(black_box(3))));
    });

    group.bench_function("ewb", |b| {
        // Each heat is irreversible: fresh device per batch.
        b.iter_batched(
            || ProbeDevice::builder().blocks(4).build(),
            |mut dev| black_box(dev.ewb(black_box(100))),
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

fn bench_sector_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("sector_ops");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    let data = [0x5Au8; 512];

    group.bench_function("mws", |b| {
        let mut dev = ProbeDevice::builder().blocks(8).build();
        b.iter(|| dev.mws(black_box(1), black_box(&data)).unwrap());
    });

    group.bench_function("mrs", |b| {
        let mut dev = ProbeDevice::builder().blocks(8).build();
        dev.mws(2, &data).unwrap();
        b.iter(|| black_box(dev.mrs(black_box(2)).unwrap()));
    });

    group.bench_function("ers", |b| {
        let mut dev = ProbeDevice::builder().blocks(8).build();
        dev.ews(3, &vec![true; 256]).unwrap();
        b.iter(|| black_box(dev.ers(black_box(3)).unwrap()));
    });

    // The word path's other branch: heated dots in a magnetic sector read
    // weak, and the decoder corrects them as erasures.
    group.bench_function("mrs_heated", |b| {
        let mut dev = ProbeDevice::builder().blocks(8).build();
        dev.mws(2, &data).unwrap();
        let first = dev.block_first_dot(2);
        for byte in [20u64, 150, 300, 450] {
            dev.medium_mut().heat(first + byte * 8 + 3);
        }
        b.iter(|| black_box(dev.mrs(black_box(2)).unwrap()));
    });

    // A channel noise can sway (σ = 0.2) keeps the per-dot path.
    group.bench_function("mrs_noisy", |b| {
        let mut dev = ProbeDevice::builder()
            .blocks(8)
            .channel(ReadChannel::new(1.0, 0.2, 0.08, 0.5))
            .build();
        dev.mws(2, &data).unwrap();
        b.iter(|| black_box(dev.mrs(black_box(2))));
    });

    group.finish();
}

/// What a snapshot of a served-size device costs: the `e2e` device has
/// 65,536 blocks, and the medium dominates the copy.
fn bench_device_clone(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    let mut dev = ProbeDevice::builder().blocks(65_536).build();
    dev.mws(1, &[0x5Au8; 512]).unwrap();
    dev.ews(2, &[true; 64]).unwrap();
    group.bench_function("clone_65536_blocks", |b| b.iter(|| black_box(dev.clone())));

    group.finish();
}

criterion_group!(benches, bench_bitops, bench_sector_ops, bench_device_clone);
criterion_main!(benches);
