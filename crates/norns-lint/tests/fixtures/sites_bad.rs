// Fixture: a second caller of a guarded call, and a forbidden name, in
// production code.

fn guarded() {
    fallocate(0);
}

fn stray() {
    fallocate(1);
}

struct Old {
    window: RemoteWindow,
}
