// Fixture: guards on locks held under an `Arc` — a field and a binding —
// live across a deny-listed blocking call.

use std::sync::{Arc, Mutex};
use std::time::Duration;

struct Watch {
    seen: Arc<Mutex<Vec<u64>>>,
}

impl Watch {
    fn poll(&self) {
        let seen = self.seen.lock().unwrap();
        std::thread::sleep(Duration::from_millis(1));
        drop(seen);
    }
}

fn record() {
    let fired = Arc::new(Mutex::new(Vec::new()));
    let mut all = fired.lock().unwrap();
    std::thread::sleep(Duration::from_millis(1));
    all.push(1);
}
