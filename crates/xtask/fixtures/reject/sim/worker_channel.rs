//! Fixture: a scoped worker pool inside the simulation kernel must be
//! rejected — `pds-sim` steps a world on one thread, with no audited
//! exception. Channels are caught too: mpsc receive order depends on
//! host scheduling.

fn round(work: &[Vec<u64>]) -> Vec<u64> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        for ids in work {
            let tx = tx.clone();
            s.spawn(move || tx.send(ids.len() as u64));
        }
    });
    drop(tx);
    rx.iter().collect()
}
