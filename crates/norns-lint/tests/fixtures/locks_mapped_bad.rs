// Fixture: a Mutex guard held across the mapped mover's syscalls —
// the populating `mmap` and the `pwrite` that lands the unit, the
// second reached through its wrapper.

use std::sync::Mutex;

struct Mover {
    units: Mutex<Vec<u64>>,
}

impl Mover {
    fn map_next(&self, fd: i32, len: usize) {
        let units = self.units.lock().unwrap();
        let _ = unsafe { mmap(std::ptr::null_mut(), len, 1, 0x8001, fd, units[0] as i64) };
    }

    fn land_next(&self, fd: i32, from: *const u8, len: usize) {
        let units = self.units.lock().unwrap();
        write_unit(fd, from, len, units[0]);
    }
}

fn write_unit(fd: i32, from: *const u8, len: usize, offset: u64) {
    let _ = unsafe { pwrite(fd, from.cast(), len, offset as i64) };
}
