// Fixture: the same stray caller and forbidden name, inside a test module
// that is not called `tests` — a row that skips test code sees neither.

fn guarded() {
    fallocate(0);
}

#[cfg(test)]
mod other_name {
    fn stray() {
        fallocate(1);
    }

    struct Old {
        window: RemoteWindow,
    }
}
