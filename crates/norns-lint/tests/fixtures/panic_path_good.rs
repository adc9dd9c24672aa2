// Fixture: the same path refactored to error returns, plus one
// deliberate panic site carrying a waiver, and an unwrap that is fine
// because the reactor never reaches it.

fn reactor_loop(frames: &[u64]) {
    let _ = handle(frames);
}

fn handle(frames: &[u64]) -> Option<u64> {
    let head = parse(frames)?;
    // norns-lint: allow(panic-path): fixture waiver — `parse` returning Some proves the slice is non-empty
    let tail = frames[0];
    Some(head + tail)
}

fn parse(frames: &[u64]) -> Option<u64> {
    let head = frames.first().copied()?;
    // A refused thread is an error value here, not a panic.
    std::thread::Builder::new().spawn(move || drop(head)).ok()?;
    Some(head)
}

fn off_reactor_helper(frames: &[u64]) -> u64 {
    frames.first().copied().unwrap()
}
