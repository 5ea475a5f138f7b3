// Fixture: the same happening reported once; nsql_sim decides what it feeds.

fn evict(sim: &Sim, rec: &MeasureRecord, frames: u64) {
    sim.emit(rec, Event::CacheEvict(frames));
    let _median = sim.hist.msg_bytes.percentile(0.5);
}
