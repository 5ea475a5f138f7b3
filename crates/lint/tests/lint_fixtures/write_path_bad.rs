// Fixture: a component writing two instruments side by side instead of
// reporting one event.

fn evict(sim: &Sim, rec: &MeasureRecord, frames: u64) {
    sim.metrics.cache_steals.add(frames);
    sim.trace_emit(|| TraceEventKind::CacheEvict { frames });
}
