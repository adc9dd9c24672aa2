// Fixture: panic sites two hops from the reactor entry. A panic here
// takes the whole reactor thread (and every connection on it) down.

fn reactor_loop(frames: &[u64]) {
    handle(frames);
}

fn handle(frames: &[u64]) {
    let _ = parse(frames);
}

fn parse(frames: &[u64]) -> u64 {
    let head = frames.first().copied().unwrap();
    let tail = frames[0];
    // Panics when the OS is out of threads — exactly when a connection
    // storm makes the reactor want one.
    std::thread::spawn(move || drop(tail));
    head + tail
}
