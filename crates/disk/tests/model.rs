//! Randomised model tests for the simulated disk, driven by a seeded RNG.

use nsql_disk::Disk;
use nsql_sim::{Sim, SimRng};
use std::collections::HashMap;

/// Reads always return the latest write, across arbitrary write orders and
/// bulk sizes; the device timeline never runs backwards.
#[test]
fn read_your_writes() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from(0xD15C + case);
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$P", false);
        let mut model: HashMap<u32, u8> = HashMap::new();
        let mut last_busy = 0;
        let nops = 1 + rng.below(60) as usize;
        for _ in 0..nops {
            let start = rng.below(64) as u32;
            let nblocks = 1 + rng.below(3) as usize;
            let fill = rng.below(256) as u8;
            let blocks: Vec<Vec<u8>> = (0..nblocks)
                .map(|i| vec![fill.wrapping_add(i as u8); 64])
                .collect();
            disk.write(start, &blocks).unwrap();
            for i in 0..nblocks {
                model.insert(start + i as u32, fill.wrapping_add(i as u8));
            }
            assert!(
                disk.busy_until() >= last_busy,
                "device timeline went backwards"
            );
            last_busy = disk.busy_until();
        }
        for (&block, &fill) in &model {
            let got = disk.read(block, 1).unwrap();
            assert_eq!(got[0][0], fill, "block {block}");
        }
    }
}

/// Async reads return the same data as sync reads and complete no earlier
/// than they start.
#[test]
fn async_read_consistency() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from(0xA51C + case);
        let blocks = 1 + rng.below(6) as usize;
        let fill = rng.below(256) as u8;
        let sim = Sim::new();
        let disk = Disk::new(sim.clone(), "$P", false);
        let data: Vec<Vec<u8>> = (0..blocks).map(|i| vec![fill ^ i as u8; 32]).collect();
        disk.write(0, &data).unwrap();
        let now = sim.now();
        let (async_data, done) = disk.read_async(0, blocks).unwrap();
        assert!(done > now);
        sim.clock.advance_to(done);
        let sync_data = disk.read(0, blocks).unwrap();
        assert_eq!(async_data, sync_data);
    }
}
