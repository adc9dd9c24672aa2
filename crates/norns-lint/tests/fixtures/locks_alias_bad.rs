// Fixture: a lock named through a type alias — a parameter, a binding
// made from the alias, and a second handle cloned off it — held across a
// deny-listed blocking call.

use std::sync::{Arc, Mutex};
use std::time::Duration;

type Seen = Arc<Mutex<Vec<u64>>>;

fn poll(seen: &Seen) {
    let all = seen.lock().unwrap();
    std::thread::sleep(Duration::from_millis(1));
    drop(all);
}

fn record() {
    let fired = Seen::default();
    let shared = Arc::clone(&fired);
    let mut all = shared.lock().unwrap();
    std::thread::sleep(Duration::from_millis(1));
    all.push(1);
}
