// Fixture: the same `Arc`-held locks, each guard dropped before the
// blocking call — no finding.

use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Watch {
    seen: Arc<Mutex<Vec<u64>>>,
}

impl Watch {
    fn poll(&self) {
        let seen = self.seen.lock().unwrap();
        let n = seen.len();
        drop(seen);
        std::thread::sleep(Duration::from_millis(n as u64));
    }
}

fn record() {
    let fired = Arc::new(Mutex::new(Vec::new()));
    fired.lock().unwrap().push(1);
    std::thread::sleep(Duration::from_millis(1));
}
