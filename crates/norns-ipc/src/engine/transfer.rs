//! The data plane: chunked, zero-copy file transfers.
//!
//! Table II of the paper ranks transfer plugins by how little the CPU
//! touches the data: `sendfile` and `fallocate`+`mmap` beat buffered
//! read/write loops. This module is that idea on modern primitives:
//!
//! * **The mover rule** — a chunked copy whose two files are both on
//!   ext4 (one `fstatfs(2)` each, at plan) takes the paper's
//!   `fallocate`+`mmap` path: each unit maps its source range
//!   read-only with `MAP_SHARED | MAP_POPULATE` and lands it with one
//!   `pwrite(2)` from the mapping ([`SourceMap`]). Everything else
//!   moves byte ranges with `copy_file_range(2)`, which stays in the
//!   kernel: pairs not on ext4 (tmpfs, where the mapped write is
//!   slower, and reflink or offload filesystems, where the call is a
//!   clone), whole-file copies of at most one chunk and tree leaves
//!   (the mapped write loses below about 1 MiB), and a unit whose
//!   mapping the kernel refuses. ext4 cannot clone, so there
//!   `copy_file_range` is `do_splice_direct` through a 16-slot kernel
//!   pipe. Where the call is unavailable or refuses the pair (`EXDEV`,
//!   `EINVAL`, `ENOSYS`, …) the range degrades to a pooled-buffer
//!   `pread`/`pwrite` loop — one reusable buffer per worker thread,
//!   never an allocation per transfer. Raw syscalls, 8 MiB units,
//!   `fallocate`d destination, interleaved pairs on the 2-vCPU
//!   reference box (Linux 6.18):
//!
//!   | copy                                    | `copy_file_range`  | mapped + `pwrite`  | mapped won      |
//!   |-----------------------------------------|--------------------|--------------------|-----------------|
//!   | ext4, 64 MiB (large-folio source)       | 16.0–22.3 ms       | 13.3–17.7 ms       | ≥ 92 %, 5 runs  |
//!   | ext4, 16 MiB                            | 3.9–5.1 ms         | 2.6–3.8 ms         | ≥ 97 %, 4 runs  |
//!   | ext4, 64 MiB, no `MAP_POPULATE`         | 16.0 ms            | 15.9 ms            | 27/40 (no gain) |
//!   | ext4, 64 MiB, small-folio source¹       | 21.2 ms            | 21.1 ms            | 8/20 (neutral)  |
//!   | tmpfs, 64 MiB                           | 16.2–20.2 ms       | 19.3–24.3 ms       | 0–2 (loses)     |
//!   | ext4 whole file, 4 KiB / 64 KiB / 1 MiB | 4.7 / 14 / 245 µs  | 13.4 / 27 / 259 µs | loses²          |
//!
//!   ¹ written 4 KiB at a time. ² timed from Python, whose `mmap`
//!   object inflates the small mapped sizes; the daemon maps every
//!   unit of a chunked copy and nothing else. A source truncated under
//!   a mapping raises no signal: the kernel reads the mapping inside
//!   `pwrite`, which comes up short and then fails `EFAULT`, and the
//!   unit fails as a short one does.
//! * **Allocated before the first byte** — a destination that is
//!   written in ranges (a chunked copy, a pull, a push's `Prepare` on
//!   the peer) is given all its blocks up front by `fallocate(2)`
//!   ([`preallocate`]), as the paper's plugins do. A `set_len` would
//!   only give it a length: a sparse file on ext4, every page of which
//!   pays for delayed allocation when it is written, and a disk that
//!   cannot hold it fails mid-copy or at writeback, after the task
//!   reported `Finished`. Allocated, a full disk or quota fails the
//!   plan before any byte moves. Raw syscalls on the 2-vCPU reference
//!   box, median of 30–80 alternating repetitions:
//!
//!   | operation (ext4 unless marked)              | `set_len` dst | `fallocate`d dst | change       |
//!   |---------------------------------------------|---------------|------------------|--------------|
//!   | `copy_file_range`, 64 MiB in 8 MiB chunks   | 18.3–22.0 ms  | 16.4–19.5 ms     | −10 to −11 % |
//!   | `copy_file_range`, 16 MiB                   | 3.72 ms       | 3.09 ms          | −17 %        |
//!   | 16 MiB over loopback: `sendfile` → `splice` | 5.07–5.14 ms  | 4.57–4.70 ms     | −9 to −10 %  |
//!   | tmpfs, 64 MiB                               | 22.4 ms       | 21.6 ms          | neutral      |
//!   | tmpfs, 16 MiB                               | 3.49 ms       | 3.57 ms          | neutral      |
//!
//!   (The loopback row lands its payload socket → pipe → file.)
//! * **Chunked** — a large file is split into fixed-size chunks
//!   ([`ChunkedCopy`]); the destination is allocated once and each
//!   chunk is one scheduler dispatch. A chunk is a *scheduling
//!   quantum* (the policy re-arbitrates every `chunk_size`), a cancel
//!   point and a progress step — not a unit of parallelism: a transfer
//!   is a **chain**, i.e. at most one of its chunks is queued or on a
//!   worker at a time, and the worker that finishes a chunk issues the
//!   next. Buffered writers of one
//!   inode serialise on its write lock (`i_rwsem`), so more workers
//!   inside one destination file move bytes no faster and pay the lock
//!   hand-offs; the pool's other workers are worth more on *other*
//!   files. Raw `copy_file_range`, 64 MiB in 8 MiB chunks, p50 of 15
//!   on the 2-vCPU reference box (ext4):
//!
//!   | writers                      | time         | aggregate      |
//!   |------------------------------|--------------|----------------|
//!   | 1 thread                     | 22.4–22.7 ms | 2.75–2.8 GiB/s |
//!   | 2–4 threads, same inode      | 22.6–27.0 ms | 2.3–2.8 GiB/s  |
//!   | 2 threads, different inodes  | 23.4–24.2 ms | 5.2–5.35 GiB/s |
//!
//!   A remote transfer is a chain too: its destination is one inode on
//!   the peer (a push) or here (a pull), and the receiving end lands a
//!   payload with one copy, so a second connection only queued on that
//!   same lock.
//! * **Live progress** — every kernel round-trip advances a per-task
//!   atomic, which `query()` overlays on `bytes_moved`; pollers see a
//!   transfer advance instead of `0 → total` at completion (the
//!   paper's `NORNS_EPENDING` polling semantics).

use std::cell::RefCell;
use std::ffi::{c_int, c_long, c_void};
use std::fs::{self, File, Metadata, OpenOptions, Permissions};
use std::io;
use std::os::unix::fs::{FileExt, MetadataExt};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use norns_proto::{ErrorCode, TaskOp};

use super::error::EngineError;

/// Default data-plane chunk size (8 MiB): large enough that the
/// per-chunk scheduler round-trip is noise (a local copy pays one per
/// chunk, on the worker that just finished the previous one), small
/// enough that the arbitration policy, a cancel and `query()` progress
/// get a say every few milliseconds of a large transfer.
pub const DEFAULT_CHUNK_SIZE: u64 = 8 << 20;

/// Floor on the configurable chunk size: below this the per-chunk
/// dispatch overhead dominates.
pub const MIN_CHUNK_SIZE: u64 = 64 << 10;

/// Size cap of the per-thread pooled buffer behind both buffered
/// fallbacks: the local `pread`/`pwrite` copy below and the remote
/// push behind a refused `sendfile`.
pub(crate) const POOL_BUF: usize = 1 << 20;

/// One `copy_file_range(2)` round-trip with explicit offsets (the fd
/// cursors are never touched, so chunk workers share the two `File`s).
#[cfg(target_os = "linux")]
fn copy_file_range_once(
    src: &File,
    src_off: u64,
    dst: &File,
    dst_off: u64,
    len: usize,
) -> io::Result<usize> {
    // Declared directly (glibc ≥ 2.27) — the workspace builds offline
    // with no libc crate.
    // SAFETY: signature transcribed from the glibc header; `loff_t` is
    // i64 on every Linux target this repo builds for.
    extern "C" {
        fn copy_file_range(
            fd_in: std::ffi::c_int,
            off_in: *mut i64,
            fd_out: std::ffi::c_int,
            off_out: *mut i64,
            len: usize,
            flags: std::ffi::c_uint,
        ) -> isize;
    }
    let mut off_in = src_off as i64;
    let mut off_out = dst_off as i64;
    // SAFETY: both fds are live (borrowed from `&File`s) and the two
    // offset pointers refer to live stack i64s the kernel advances;
    // the explicit offsets mean no shared cursor is mutated.
    let n = unsafe {
        copy_file_range(
            src.as_raw_fd(),
            &mut off_in,
            dst.as_raw_fd(),
            &mut off_out,
            len,
            0,
        )
    };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// `EOPNOTSUPP`: the filesystem cannot allocate ahead of writes.
#[cfg(target_os = "linux")]
const EOPNOTSUPP: i32 = 95;

/// `EFBIG`: no file can be that long.
const EFBIG: i32 = 27;

/// One `fallocate(2)`, mode 0: allocate the first `len` bytes of
/// `file` and extend its length to `len`.
#[cfg(target_os = "linux")]
fn fallocate_once(file: &File, len: i64) -> io::Result<()> {
    // Declared directly (glibc), like `copy_file_range` above.
    // SAFETY: signature transcribed from the glibc header; `off_t` is
    // i64 on every 64-bit Linux target this repo builds for.
    extern "C" {
        fn fallocate(
            fd: std::ffi::c_int,
            mode: std::ffi::c_int,
            offset: i64,
            len: i64,
        ) -> std::ffi::c_int;
    }
    loop {
        // SAFETY: the fd is live for the duration of the call (borrowed
        // from `&File`); the other arguments are plain integers.
        if unsafe { fallocate(file.as_raw_fd(), 0, 0, len) } == 0 {
            return Ok(());
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Give the empty landing file `file` at `path` all `len` bytes of its
/// blocks before its first byte is written (module docs). A filesystem
/// that cannot allocate ahead (`EOPNOTSUPP`) gets the length alone, as
/// `set_len` gives it. Any other refusal — `ENOSPC`, `EDQUOT`, `EFBIG`,
/// the last without a syscall for a length above `i64::MAX` — is
/// returned, and the file removed: under its final name, a file that
/// could never hold the data would fake a staged one, and a failed
/// plan has no chain whose end removes it.
pub(crate) fn preallocate(file: &File, path: &Path, len: u64) -> io::Result<()> {
    let allocated = match i64::try_from(len) {
        Err(_) => Err(io::Error::from_raw_os_error(EFBIG)),
        // `fallocate` refuses a zero length; an empty file is done.
        Ok(0) => Ok(()),
        #[cfg(target_os = "linux")]
        Ok(signed) => match fallocate_once(file, signed) {
            Err(e) if e.raw_os_error() == Some(EOPNOTSUPP) => file.set_len(len),
            done => done,
        },
        #[cfg(not(target_os = "linux"))]
        Ok(_) => file.set_len(len),
    };
    allocated.inspect_err(|_| {
        let _ = fs::remove_file(path);
    })
}

/// `statfs(2)`'s `f_type` of ext2/3/4 (`EXT4_SUPER_MAGIC`).
const EXT4_SUPER_MAGIC: i64 = 0xEF53;

/// `EFAULT`: the kernel could not read a buffer it was given.
const EFAULT: i32 = 14;

// The mapped mover's syscalls, declared directly (glibc) like
// `copy_file_range` above. Linux-only, like the rest of the crate (its
// reactor is `epoll`).
// SAFETY: signatures transcribed from the glibc headers for 64-bit
// Linux, where `off_t` and `long` are i64 and `struct statfs` is 120
// bytes with its `long f_type` first.
extern "C" {
    fn fstatfs(fd: c_int, buf: *mut [i64; 16]) -> c_int;
    fn sysconf(name: c_int) -> c_long;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn pwrite(fd: c_int, buf: *const c_void, count: usize, offset: i64) -> isize;
}

/// Is `file` on ext4? One `fstatfs(2)`; a refused call says no.
fn on_ext4(file: &File) -> bool {
    // Room for glibc's 120-byte `struct statfs`; `f_type` is word 0.
    let mut buf = [0i64; 16];
    // SAFETY: the fd is live (borrowed from `&File`) and `buf` is a
    // live, writable stack array larger than the struct the kernel
    // fills.
    let done = unsafe { fstatfs(file.as_raw_fd(), &mut buf) } == 0;
    done && buf[0] == EXT4_SUPER_MAGIC
}

/// One unit's source range mapped read-only, shared and pre-faulted
/// (`MAP_POPULATE`), from its offset aligned down to the page: the
/// source side of a mapped unit (module docs). No Rust slice or
/// reference is ever formed over it — a load from a page the source
/// lost to a truncate raises `SIGBUS` — so its one reader is the
/// kernel, in [`SourceMap::write_to`]'s `pwrite(2)`, which fails such
/// a page with `EFAULT` instead. Unmapped on drop, on every path.
struct SourceMap {
    base: *mut c_void,
    /// Bytes mapped from `base`.
    len: usize,
    /// The file offset `base` maps: the unit's, aligned down to the page.
    at: i64,
    /// How far past `base` the unit starts.
    lead: usize,
}

impl SourceMap {
    /// Map `len` bytes of `src` at `offset`; `None` if the kernel
    /// refuses, before any byte moved (the unit takes `copy_range`).
    fn new(src: &File, offset: u64, len: u64) -> Option<SourceMap> {
        const PROT_READ: c_int = 0x1;
        const MAP_SHARED: c_int = 0x01;
        const MAP_POPULATE: c_int = 0x8000;
        const SC_PAGESIZE: c_int = 30;
        // Every file offset the unit's write names fits an `off_t`.
        i64::try_from(offset.checked_add(len)?).ok()?;
        // SAFETY: a query with an integer argument; nothing is shared.
        let page = u64::try_from(unsafe { sysconf(SC_PAGESIZE) }).ok()?;
        let lead = offset.checked_rem(page)?;
        let mapped = usize::try_from(lead + len).ok()?;
        let at = (offset - lead) as i64;
        let flags = MAP_SHARED | MAP_POPULATE;
        // SAFETY: a null hint makes the kernel place a new mapping where
        // nothing is mapped, so no existing memory changes; the fd is
        // live for the call and the mapping keeps its own file reference.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                mapped,
                PROT_READ,
                flags,
                src.as_raw_fd(),
                at,
            )
        };
        // `MAP_FAILED` is `(void *) -1`.
        (base as usize != usize::MAX).then_some(SourceMap {
            base,
            len: mapped,
            at,
            lead: lead as usize,
        })
    }

    /// Write the mapped unit to `dst` at the offset it was mapped from,
    /// one `pwrite(2)` on the raw mapping pointer (more only for a
    /// write the kernel caps), advancing `progress`. Returns the bytes
    /// written: short when the source was truncated under the mapping,
    /// which the kernel reports as a short count and then `EFAULT`,
    /// raising no signal.
    fn write_to(&self, dst: &File, progress: &AtomicU64) -> io::Result<u64> {
        let mut done = self.lead;
        while done < self.len {
            let from = self.base.cast::<u8>().wrapping_add(done);
            // SAFETY: `from` and the `self.len - done` bytes after it lie
            // inside the live mapping, read by the kernel alone (a page
            // it cannot fault in fails the call `EFAULT`); the fd is live
            // (borrowed from `&File`).
            let n = unsafe {
                pwrite(
                    dst.as_raw_fd(),
                    from.cast(),
                    self.len - done,
                    self.at + done as i64,
                )
            };
            if n == 0 {
                break;
            }
            if n > 0 {
                done += n as usize;
                progress.fetch_add(n as u64, Ordering::Relaxed);
                continue;
            }
            let e = io::Error::last_os_error();
            if e.raw_os_error() == Some(EFAULT) {
                break;
            }
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
        Ok((done - self.lead) as u64)
    }
}

impl Drop for SourceMap {
    fn drop(&mut self) {
        // SAFETY: `base` and `len` are the mapping `new` made, unmapped
        // once, here; nothing points into it.
        unsafe { munmap(self.base, self.len) };
    }
}

/// Errors that mean "this file pair can't use `copy_file_range`, use
/// the buffered path" rather than "the transfer failed".
#[cfg(target_os = "linux")]
fn wants_fallback(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Unsupported          // ENOSYS / EOPNOTSUPP
            | io::ErrorKind::CrossesDevices // EXDEV (pre-5.3 kernels)
            | io::ErrorKind::InvalidInput   // EINVAL (e.g. procfs, overlapping)
            | io::ErrorKind::PermissionDenied // EPERM on immutable/sealed files
    )
}

thread_local! {
    /// The one pooled buffer per worker thread. Its two users never
    /// nest, so a `RefCell` borrow cannot collide.
    static POOL: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` over this thread's pooled buffer, grown (never shrunk) to
/// `len` bytes capped at [`POOL_BUF`] — no allocation per transfer.
pub(crate) fn with_pool_buf<R>(len: u64, f: impl FnOnce(&mut [u8]) -> R) -> R {
    POOL.with(|cell| {
        let mut buf = cell.borrow_mut();
        let want = len.min(POOL_BUF as u64) as usize;
        if buf.len() < want {
            buf.resize(want, 0);
        }
        f(&mut buf[..want])
    })
}

/// Fill `buf` from `file` at `offset`, retrying `EINTR` (a signal in
/// the worker is not a transfer failure). Returns the bytes read:
/// short only when the file ends first.
pub(crate) fn read_full_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<usize> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match file.read_at(&mut buf[filled..], offset + filled as u64) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Buffered `pread`/`pwrite` loop over the thread's pooled buffer.
fn buffered_copy_range(
    src: &File,
    dst: &File,
    mut offset: u64,
    len: u64,
    progress: &AtomicU64,
) -> io::Result<u64> {
    with_pool_buf(len, |buf| {
        let mut copied = 0u64;
        while copied < len {
            let step = (len - copied).min(buf.len() as u64) as usize;
            let n = read_full_at(src, &mut buf[..step], offset)?;
            dst.write_all_at(&buf[..n], offset)?;
            offset += n as u64;
            copied += n as u64;
            progress.fetch_add(n as u64, Ordering::Relaxed);
            if n < step {
                break; // source shorter than planned (shrank under us)
            }
        }
        Ok(copied)
    })
}

/// Copy `len` bytes at `offset` (same offset both sides), zero-copy
/// where the kernel allows it, advancing `progress` per round-trip.
/// Returns the bytes actually moved (short only if the source shrank).
pub(crate) fn copy_range(
    src: &File,
    dst: &File,
    offset: u64,
    len: u64,
    progress: &AtomicU64,
) -> io::Result<u64> {
    let mut copied = 0u64;
    #[cfg(target_os = "linux")]
    while copied < len {
        let want = (len - copied).min(1 << 30) as usize;
        match copy_file_range_once(src, offset + copied, dst, offset + copied, want) {
            Ok(0) => return Ok(copied),
            Ok(n) => {
                copied += n as u64;
                progress.fetch_add(n as u64, Ordering::Relaxed);
            }
            // A signal interrupting the syscall is retryable, not a
            // transfer failure (fs::copy retries EINTR the same way).
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // Fall back only if nothing moved yet: a mid-range refusal
            // is a real error, not an unsupported file pair.
            Err(e) if copied == 0 && wants_fallback(&e) => break,
            Err(e) => return Err(e),
        }
    }
    if copied < len {
        copied += buffered_copy_range(src, dst, offset + copied, len - copied, progress)?;
    }
    Ok(copied)
}

/// Run `op` on `path`, creating `path`'s parent directory only when
/// `op` fails `NotFound` — then once more. Every output lands through
/// here: the parent almost always exists, and creating it up front
/// cost every task a `mkdir(2)` failing `EEXIST` under the
/// grandparent's lock plus a `stat(2)`. The parent is not checked
/// first: tasks landing in the same missing directory race to make it,
/// and one that lost the race must still try again.
pub(crate) fn with_parent<T>(
    path: &Path,
    mut op: impl FnMut(&Path) -> io::Result<T>,
) -> io::Result<T> {
    match op(path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => match path.parent() {
            Some(parent) => {
                fs::create_dir_all(parent)?;
                op(path)
            }
            None => Err(e),
        },
        done => done,
    }
}

/// Open `src` and create-or-empty `dst` for a copy: the one place a
/// source is opened and its destination truncated. The destination is
/// opened *without* `O_TRUNC` and compared with the source by
/// `(st_dev, st_ino)` first — a hard link or symlink to the source (or
/// the same file reached through two overlapping dataspaces) is a
/// different path but the same inode, and truncating it would destroy
/// the data being copied.
fn open_pair(src: &Path, dst: &Path) -> Result<(File, Metadata, File), EngineError> {
    let from = File::open(src)?;
    let meta = from.metadata()?;
    let to = with_parent(dst, |dst| {
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dst)
    })?;
    let old = to.metadata()?;
    if (old.dev(), old.ino()) == (meta.dev(), meta.ino()) {
        return Err(EngineError::bad_args(format!(
            "source {} and destination {} are the same file",
            src.display(),
            dst.display()
        )));
    }
    if old.len() > 0 {
        to.set_len(0)?;
    }
    Ok((from, meta, to))
}

/// Whole-file copy (small files and tree leaves — chunk decomposition
/// only applies to top-level single-file transfers).
pub(crate) fn copy_file(src: &Path, dst: &Path, progress: &AtomicU64) -> Result<u64, EngineError> {
    let (from, meta, to) = open_pair(src, dst)?;
    let moved = copy_range(&from, &to, 0, meta.len(), progress)?;
    let _ = to.set_permissions(meta.permissions());
    Ok(moved)
}

/// Recursive copy returning bytes moved (file contents only).
///
/// Symlinks are *recreated as symlinks* — `symlink_metadata` instead of
/// `fs::metadata`, so a self-referential link cannot loop the worker
/// forever and link targets are not deep-copied.
pub(crate) fn copy_tree(src: &Path, dst: &Path, progress: &AtomicU64) -> Result<u64, EngineError> {
    let file_type = fs::symlink_metadata(src)?.file_type();
    if file_type.is_symlink() {
        let target = fs::read_link(src)?;
        if fs::symlink_metadata(dst).is_ok() {
            fs::remove_file(dst)?;
        }
        with_parent(dst, |dst| std::os::unix::fs::symlink(&target, dst))?;
        Ok(0)
    } else if file_type.is_dir() {
        fs::create_dir_all(dst)?;
        let mut total = 0;
        let mut entries: Vec<_> = fs::read_dir(src)?.collect::<io::Result<_>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            total += copy_tree(&entry.path(), &dst.join(entry.file_name()), progress)?;
        }
        Ok(total)
    } else {
        copy_file(src, dst, progress)
    }
}

/// A source that ended before the byte a planned range needed: the
/// file shrank under the transfer (`side` says whose it was).
pub(crate) fn truncated(side: &str, at: u64) -> EngineError {
    EngineError::new(
        ErrorCode::SystemError,
        format!("{side} source truncated at byte {at}"),
    )
}

/// Terminal outcome of a (possibly decomposed) transfer.
pub(crate) enum PlanOutcome {
    /// Completed; bytes moved.
    Done(u64),
    Failed(EngineError),
    /// Interrupted by a mid-stream cancel.
    Cancelled,
}

/// The two things that differ between decomposed transfers; the
/// [`Chain`] does the rest. A mover is owned by its chain and runs on
/// one worker at a time, so it may keep state between its ranges.
pub(crate) trait RangeMover: Send {
    /// Move the issued unit's range. A mover that sees the task's
    /// abort flag mid-range stops early and returns `Ok`: the chain
    /// reads the flag itself.
    fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError>;
    /// Terminal side effects: commit a transfer whose every range
    /// `landed`, or remove what an interrupted one left behind.
    fn finish(&mut self, landed: bool) -> Result<(), EngineError>;
}

/// A transfer decomposed into scheduler sub-units (local chunked copy
/// or remote staging), its ranges in file order.
///
/// The units run as a **chain**: one unit is issued — in the scheduler
/// or on a worker — at a time, the planning dispatch being the first,
/// and the worker that ran a unit issues its successor. The chain is a
/// value with one owner, whoever holds that one unit: [`Chain::step`]
/// and [`Chain::abort`] consume it, and only `step` hands it back — so
/// nothing runs behind a stop and the mover's `finish` runs once.
pub(crate) struct Chain {
    task_id: u64,
    size: u64,
    chunk_size: u64,
    /// Where the issued unit's range starts.
    offset: u64,
    started: Instant,
    progress: Arc<AtomicU64>,
    /// Set by `Engine::cancel` on an in-progress task; observed around
    /// every unit (and by remote movers between round-trips).
    abort: Arc<AtomicBool>,
    mover: Box<dyn RangeMover>,
}

/// What running the issued unit left.
pub(crate) enum Step {
    /// Chunks remain: the chain, to be put in front of the scheduler
    /// again (or [`Chain::abort`]ed if it cannot be).
    Next(Box<Chain>),
    End(End),
}

/// A chain's end — spent, failed or cancelled, its mover finished: the
/// task's terminal transition.
pub(crate) struct End {
    pub task_id: u64,
    pub outcome: PlanOutcome,
    /// Wall-clock µs since the planning dispatch.
    pub elapsed_usec: u64,
}

impl Chain {
    /// A chain over `size` bytes whose movers report into `progress`
    /// (zero bytes are still one unit, so the task reaches a terminal
    /// state through the normal path).
    pub fn new(
        task_id: u64,
        size: u64,
        chunk_size: u64,
        progress: Arc<AtomicU64>,
        abort: Arc<AtomicBool>,
        mover: Box<dyn RangeMover>,
    ) -> Box<Self> {
        Box::new(Chain {
            task_id,
            size,
            chunk_size,
            offset: 0,
            started: Instant::now(),
            progress,
            abort,
            mover,
        })
    }

    /// Bytes the whole transfer moves.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Has `Engine::cancel` asked this transfer to stop?
    fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Run the issued unit — the next chunk in file order — and end
    /// the chain if it was the last, failed, or met the abort flag
    /// (read before the range, which then moves nothing, and again
    /// after it). A failure beats a cancel seen in the same unit.
    pub fn step(mut self: Box<Self>) -> Step {
        let len = self.chunk_size.min(self.size - self.offset);
        let stopped = if self.aborted() {
            Some(PlanOutcome::Cancelled)
        } else {
            match self.mover.move_range(self.offset, len) {
                Err(e) => Some(PlanOutcome::Failed(e)),
                Ok(()) if self.aborted() => Some(PlanOutcome::Cancelled),
                Ok(()) => None,
            }
        };
        self.offset += len;
        if stopped.is_none() && self.offset < self.size {
            Step::Next(self)
        } else {
            Step::End(self.end(stopped))
        }
    }

    /// The issued unit will never run (shutdown drained it, or found
    /// it before it could be enqueued): the chain ends failed, `why`.
    pub fn abort(self, why: &str) -> End {
        let error = EngineError::new(ErrorCode::SystemError, why);
        self.end(Some(PlanOutcome::Failed(error)))
    }

    fn end(mut self, stopped: Option<PlanOutcome>) -> End {
        let outcome = match (self.mover.finish(stopped.is_none()), stopped) {
            (_, Some(outcome)) => outcome,
            (Err(e), None) => PlanOutcome::Failed(e),
            (Ok(()), None) => PlanOutcome::Done(self.progress.load(Ordering::Relaxed)),
        };
        End {
            task_id: self.task_id,
            outcome,
            elapsed_usec: self.started.elapsed().as_micros() as u64,
        }
    }
}

/// A large single-file copy decomposed into fixed-size chunks.
///
/// The planner opens both files once, allocates the destination's
/// blocks ([`preallocate`]) and picks the mover once: mapped units
/// when both files are on ext4, `copy_range` otherwise (module docs).
/// Each unit copies the next disjoint range into blocks that are
/// already there. The destination is one inode and takes one writer at
/// a time (see the module docs), so the units run as a chain through
/// the scheduler, one dispatch per chunk.
pub(crate) struct ChunkedCopy {
    op: TaskOp,
    src: File,
    dst: File,
    src_path: PathBuf,
    dst_path: PathBuf,
    src_permissions: Permissions,
    progress: Arc<AtomicU64>,
    /// Both files are on ext4: each unit maps its source range.
    mapped: bool,
}

impl ChunkedCopy {
    /// Open the file pair, allocate the destination, and lay out the
    /// chain. `size` must exceed `chunk_size`. A destination that
    /// cannot be allocated fails the plan and is removed.
    #[allow(clippy::too_many_arguments)]
    pub fn plan(
        task_id: u64,
        op: TaskOp,
        src_path: &Path,
        dst_path: &Path,
        size: u64,
        chunk_size: u64,
        progress: Arc<AtomicU64>,
        abort: Arc<AtomicBool>,
    ) -> Result<Box<Chain>, EngineError> {
        let copy = ChunkedCopy::open(op, src_path, dst_path, size, Arc::clone(&progress))?;
        Ok(Chain::new(
            task_id,
            size,
            chunk_size,
            progress,
            abort,
            Box::new(copy),
        ))
    }

    /// The mover of [`ChunkedCopy::plan`]'s chain.
    fn open(
        op: TaskOp,
        src_path: &Path,
        dst_path: &Path,
        size: u64,
        progress: Arc<AtomicU64>,
    ) -> Result<ChunkedCopy, EngineError> {
        let (src, meta, dst) = open_pair(src_path, dst_path)?;
        preallocate(&dst, dst_path, size)?;
        Ok(ChunkedCopy {
            op,
            mapped: on_ext4(&src) && on_ext4(&dst),
            src,
            dst,
            src_path: src_path.to_path_buf(),
            dst_path: dst_path.to_path_buf(),
            src_permissions: meta.permissions(),
            progress,
        })
    }

    /// Land the unit at `offset`: from `map`, its source range mapped,
    /// or through [`copy_range`] without one. A range that comes up
    /// short means the source shrank after the plan sized it: the
    /// preallocated destination would keep its planned length with a
    /// hole where the data should be.
    fn land(&self, map: Option<SourceMap>, offset: u64, len: u64) -> Result<(), EngineError> {
        let moved = match map {
            // A cut inside the mapping's last page reads as zeros up to
            // the page's end, not as a fault: the source's length says
            // where its data stops.
            Some(map) => map
                .write_to(&self.dst, &self.progress)?
                .min(self.src.metadata()?.len().saturating_sub(offset)),
            None => copy_range(&self.src, &self.dst, offset, len, &self.progress)?,
        };
        if moved < len {
            return Err(truncated("local", offset + moved));
        }
        Ok(())
    }
}

impl RangeMover for ChunkedCopy {
    fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError> {
        let map = if self.mapped {
            SourceMap::new(&self.src, offset, len)
        } else {
            None
        };
        self.land(map, offset, len)
    }

    /// On success propagate permissions and (for `Move`) unlink the
    /// source.
    fn finish(&mut self, landed: bool) -> Result<(), EngineError> {
        if !landed {
            // Don't leave the preallocated destination behind: it has
            // the full logical size, so a consumer checking existence
            // or length would mistake zero-filled holes for staged
            // data.
            let _ = fs::remove_file(&self.dst_path);
            return Ok(());
        }
        let _ = self.dst.set_permissions(self.src_permissions.clone());
        if self.op == TaskOp::Move {
            fs::remove_file(&self.src_path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::tests::{temp_root, temp_root_in, TempRoot};
    use super::*;
    use parking_lot::Mutex;

    /// Bytes this thread's pooled buffer has grown to: 0 on a thread
    /// whose payloads never crossed userspace.
    pub(crate) fn pool_buf_len() -> usize {
        POOL.with(|cell| cell.borrow().len())
    }

    /// `path` is `len` bytes long with a block behind every one of them
    /// — not a sparse file whose blocks come with its writes — unless
    /// a probe `fallocate` beside it says the filesystem cannot
    /// allocate ahead at all.
    pub(crate) fn assert_allocated(path: &Path, len: u64) {
        let meta = fs::metadata(path).unwrap();
        assert_eq!(meta.len(), len, "{}", path.display());
        let probe = path.with_extension("probe");
        let refused = fallocate_once(&File::create(&probe).unwrap(), 1 << 20).err();
        let _ = fs::remove_file(&probe);
        if refused.is_some_and(|e| e.raw_os_error() == Some(EOPNOTSUPP)) {
            eprintln!("{}: no fallocate here, not checked", path.display());
            return;
        }
        let allocated = meta.blocks() * 512;
        assert!(
            allocated >= len,
            "{}: {allocated} of {len} bytes allocated",
            path.display()
        );
    }

    /// Position-dependent bytes so offset bugs corrupt the payload.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 31 + 7) % 251) as u8).collect()
    }

    #[test]
    fn copy_range_moves_exact_bytes_and_progress() {
        let root = temp_root("transfer-range");
        let data = pattern(3 * POOL_BUF + 123);
        fs::write(root.join("src"), &data).unwrap();
        let src = File::open(root.join("src")).unwrap();
        let dst = File::create(root.join("dst")).unwrap();
        dst.set_len(data.len() as u64).unwrap();
        let progress = AtomicU64::new(0);
        let moved = copy_range(&src, &dst, 0, data.len() as u64, &progress).unwrap();
        assert_eq!(moved, data.len() as u64);
        assert_eq!(progress.load(Ordering::Relaxed), data.len() as u64);
        assert_eq!(fs::read(root.join("dst")).unwrap(), data);
    }

    /// A copy of `data` in `chunk`-sized units, under `root`.
    fn plan_copy(root: &Path, data: &[u8], chunk: u64, abort: &Arc<AtomicBool>) -> Box<Chain> {
        fs::write(root.join("src"), data).unwrap();
        ChunkedCopy::plan(
            1,
            TaskOp::Copy,
            &root.join("src"),
            &root.join("dst"),
            data.len() as u64,
            chunk,
            Arc::new(AtomicU64::new(0)),
            Arc::clone(abort),
        )
        .unwrap()
    }

    /// Drive `chain` the way the engine does — run the issued unit,
    /// issue the next when handed it back — to its end; the units run.
    pub(crate) fn drive(mut chain: Box<Chain>) -> (u64, PlanOutcome) {
        let mut units = 1;
        loop {
            match chain.step() {
                Step::Next(next) => chain = next,
                Step::End(end) => return (units, end.outcome),
            }
            units += 1;
        }
    }

    #[test]
    fn chain_copy_single_runner_covers_all_chunks() {
        let root = temp_root("transfer-plan");
        let data = pattern((MIN_CHUNK_SIZE * 2 + 17) as usize);
        let chain = plan_copy(&root, &data, MIN_CHUNK_SIZE, &Arc::default());
        // Each unit that is not the last hands the chain back.
        match drive(chain) {
            (3, PlanOutcome::Done(moved)) => assert_eq!(moved, data.len() as u64),
            (units, _) => panic!("a clean copy must end Done in 3 units, ran {units}"),
        }
        assert_eq!(fs::read(root.join("dst")).unwrap(), data);
    }

    /// A chunked copy's destination has a block behind every byte of
    /// its length as soon as the plan returns, before the first chunk.
    #[test]
    fn prealloc_a_chunked_copy_allocates_its_destination_at_plan() {
        let root = temp_root("transfer-prealloc");
        let data = pattern((MIN_CHUNK_SIZE * 5 + 17) as usize);
        let chain = plan_copy(&root, &data, MIN_CHUNK_SIZE, &Arc::default());
        assert_allocated(&root.join("dst"), data.len() as u64);
        assert!(matches!(drive(chain), (6, PlanOutcome::Done(_))));
        assert_eq!(fs::read(root.join("dst")).unwrap(), data);
    }

    /// A destination that cannot be allocated fails the plan, and the
    /// file `open_pair` created or emptied goes with it. No file can be
    /// longer than `i64::MAX` bytes.
    #[test]
    fn prealloc_a_chunked_copy_that_cannot_allocate_leaves_no_destination() {
        let root = temp_root("transfer-efbig");
        fs::write(root.join("src"), b"source").unwrap();
        fs::write(root.join("dst"), b"an older copy").unwrap();
        let planned = ChunkedCopy::plan(
            1,
            TaskOp::Copy,
            &root.join("src"),
            &root.join("dst"),
            i64::MAX as u64 + 1,
            MIN_CHUNK_SIZE,
            Arc::default(),
            Arc::default(),
        );
        let Err(e) = planned else {
            panic!("planned a copy no file can hold");
        };
        assert_eq!(io::Error::from_raw_os_error(EFBIG).to_string(), e.message);
        assert!(
            !root.join("dst").exists(),
            "a destination that fakes a copy"
        );
        assert_eq!(fs::read(root.join("src")).unwrap(), b"source");
    }

    /// No bytes are still one unit, and so is a file that fits in one
    /// chunk: both reach `Done` through the normal path.
    #[test]
    fn chain_of_an_empty_or_sub_chunk_file_is_one_unit() {
        for len in [0, MIN_CHUNK_SIZE as usize - 1, MIN_CHUNK_SIZE as usize] {
            let root = temp_root("transfer-one-unit");
            let data = pattern(len);
            for chunk in [MIN_CHUNK_SIZE, 4 * MIN_CHUNK_SIZE] {
                let chain = plan_copy(&root, &data, chunk, &Arc::default());
                assert!(
                    matches!(drive(chain), (1, PlanOutcome::Done(moved)) if moved == len as u64),
                    "{len} bytes in chunks of {chunk}"
                );
                assert_eq!(fs::read(root.join("dst")).unwrap(), data);
            }
        }
    }

    #[test]
    fn chain_aborted_by_shutdown_reports_the_error() {
        let root = temp_root("transfer-abort");
        let data = pattern((MIN_CHUNK_SIZE * 3) as usize);
        let chain = plan_copy(&root, &data, MIN_CHUNK_SIZE, &Arc::default());
        // The first unit runs, shutdown catches its successor: the
        // abort ends the chain, the third chunk is never issued.
        let Step::Next(chain) = chain.step() else {
            panic!("two chunks remain");
        };
        match chain.abort("shutdown").outcome {
            PlanOutcome::Failed(e) => {
                assert_eq!(e.code, ErrorCode::SystemError);
                assert!(e.message.contains("shutdown"));
            }
            _ => panic!("an aborted copy must end Failed"),
        }
        // The preallocated full-size destination must not survive a
        // failed transfer: its length would fake a complete stage-in.
        assert!(!root.join("dst").exists());
    }

    #[test]
    fn chain_abort_flag_cancels_remaining_chunks() {
        let root = temp_root("transfer-midcancel");
        let data = pattern((MIN_CHUNK_SIZE * 3) as usize);
        let abort = Arc::new(AtomicBool::new(false));
        let chain = plan_copy(&root, &data, MIN_CHUNK_SIZE, &abort);
        let progress = Arc::clone(&chain.progress);
        let Step::Next(chain) = chain.step() else {
            panic!("the first chunk copies and two remain");
        };
        // The unit that observes the cancel moves nothing and ends the
        // chain, so no unit is issued after a cancel.
        abort.store(true, Ordering::SeqCst);
        assert!(
            matches!(drive(chain), (1, PlanOutcome::Cancelled)),
            "mid-stream abort must end the chain Cancelled, at once"
        );
        assert_eq!(progress.load(Ordering::Relaxed), MIN_CHUNK_SIZE);
        // A cancelled transfer leaves no half-written destination.
        assert!(!root.join("dst").exists());
    }

    /// Counts ranges and `finish` calls; fails the `fail_at`-th range
    /// and raises the abort flag during the `cancel_at`-th.
    #[derive(Default)]
    struct CountingMover {
        moved: Arc<AtomicU64>,
        finished: Arc<Mutex<Vec<bool>>>,
        fail_at: u64,
        cancel_at: u64,
        abort: Arc<AtomicBool>,
    }

    impl RangeMover for CountingMover {
        fn move_range(&mut self, _: u64, _: u64) -> Result<(), EngineError> {
            let nth = self.moved.fetch_add(1, Ordering::SeqCst) + 1;
            if nth == self.cancel_at {
                self.abort.store(true, Ordering::SeqCst);
            }
            if nth == self.fail_at {
                return Err(EngineError::bad_args("injected"));
            }
            Ok(())
        }

        fn finish(&mut self, landed: bool) -> Result<(), EngineError> {
            self.finished.lock().push(landed);
            Ok(())
        }
    }

    /// Drive a 7-unit chain over a [`CountingMover`]; the units run,
    /// the outcome, and what `finish` was told (once, whatever ended
    /// the chain).
    fn drive_counting(fail_at: u64, cancel_at: u64, aborted: bool) -> (u64, PlanOutcome, bool) {
        let mover = CountingMover {
            fail_at,
            cancel_at,
            abort: Arc::new(AtomicBool::new(aborted)),
            ..CountingMover::default()
        };
        let (moved, finished) = (Arc::clone(&mover.moved), Arc::clone(&mover.finished));
        let chain = Chain::new(
            1,
            7 * MIN_CHUNK_SIZE,
            MIN_CHUNK_SIZE,
            Arc::new(AtomicU64::new(0)),
            Arc::clone(&mover.abort),
            Box::new(mover),
        );
        let (units, outcome) = drive(chain);
        let ranges = moved.load(Ordering::SeqCst);
        assert_eq!(units, ranges + u64::from(aborted), "one range per unit");
        let finished = finished.lock().clone();
        assert_eq!(finished.len(), 1, "finish ran {finished:?}");
        (ranges, outcome, finished[0])
    }

    #[test]
    fn chain_runs_every_unit_once_and_a_failure_ends_it() {
        assert!(matches!(
            drive_counting(0, 0, false),
            (7, PlanOutcome::Done(_), true)
        ));
        // The third range fails: nothing is issued behind it.
        assert!(matches!(
            drive_counting(3, 0, false),
            (3, PlanOutcome::Failed(_), false)
        ));
    }

    /// The two stops one unit can meet together, in the order the
    /// chain reads them.
    #[test]
    fn chain_failure_beats_a_cancel_seen_in_the_same_unit() {
        // The cancel arrives while the third range is failing.
        assert!(matches!(
            drive_counting(3, 3, false),
            (3, PlanOutcome::Failed(_), false)
        ));
        // Alone it ends the chain `Cancelled` behind that range …
        assert!(matches!(
            drive_counting(0, 3, false),
            (3, PlanOutcome::Cancelled, false)
        ));
        // … and a flag already up when the first unit runs moves no
        // byte at all.
        assert!(matches!(
            drive_counting(1, 0, true),
            (0, PlanOutcome::Cancelled, false)
        ));
    }

    /// A scratch root where chunked copies take the mapped path: `None`,
    /// with a note, where the temp dir is not on ext4.
    fn ext4_root(tag: &str) -> Option<TempRoot> {
        let root = temp_root(tag);
        if on_ext4(&File::open(&*root).unwrap()) {
            return Some(root);
        }
        eprintln!("{}: not ext4, mapped path not tested", root.display());
        None
    }

    /// The mover is picked by where both files live: mapped for two
    /// files on ext4, `copy_range` when either is on tmpfs.
    #[test]
    fn mapped_only_when_both_files_are_on_ext4() {
        let Some(root) = ext4_root("mapped-select") else {
            return;
        };
        let mapped = |src: &Path, dst: &Path| {
            fs::write(src, b"source").unwrap();
            ChunkedCopy::open(TaskOp::Copy, src, dst, 6, Arc::default())
                .unwrap()
                .mapped
        };
        assert!(mapped(&root.join("src"), &root.join("dst")));
        let shm = Path::new("/dev/shm");
        if !File::open(shm).is_ok_and(|dir| !on_ext4(&dir)) {
            eprintln!("{}: absent or ext4, tmpfs side not tested", shm.display());
            return;
        }
        let shm = temp_root_in(shm, "mapped-select");
        assert!(!mapped(&shm.join("src"), &root.join("dst")));
        assert!(!mapped(&root.join("src"), &shm.join("dst")));
    }

    /// A chunk that is not a page multiple puts every unit after the
    /// first off a page boundary: each still maps, and the bytes land
    /// exactly.
    #[test]
    fn mapped_units_off_page_boundaries_move_exact_bytes() {
        let Some(root) = ext4_root("mapped-offpage") else {
            return;
        };
        let chunk = MIN_CHUNK_SIZE + 4097;
        let data = pattern((3 * chunk + 1234) as usize);
        let chain = plan_copy(&root, &data, chunk, &Arc::default());
        let src = File::open(root.join("src")).unwrap();
        for offset in (0..data.len() as u64).step_by(chunk as usize) {
            let len = chunk.min(data.len() as u64 - offset);
            let map = SourceMap::new(&src, offset, len).expect("an ext4 unit maps");
            assert_eq!(map.at as u64 + map.lead as u64, offset);
            assert_eq!((map.len - map.lead) as u64, len);
        }
        assert!(
            matches!(drive(chain), (4, PlanOutcome::Done(moved)) if moved == data.len() as u64)
        );
        assert_eq!(fs::read(root.join("dst")).unwrap(), data);
    }

    /// A [`ChunkedCopy`] whose source is truncated to `cut` bytes
    /// between mapping the unit that crosses `cut` and writing it.
    struct CutUnderTheMap {
        copy: ChunkedCopy,
        cut: u64,
    }

    impl RangeMover for CutUnderTheMap {
        fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError> {
            let map = SourceMap::new(&self.copy.src, offset, len).expect("an ext4 unit maps");
            if offset + len > self.cut {
                let src = OpenOptions::new().write(true).open(&self.copy.src_path);
                src.unwrap().set_len(self.cut).unwrap();
            }
            self.copy.land(Some(map), offset, len)
        }

        fn finish(&mut self, landed: bool) -> Result<(), EngineError> {
            self.copy.finish(landed)
        }
    }

    /// A source truncated under a live mapping: the write comes up
    /// short (the kernel's `EFAULT`, no `SIGBUS` — this process goes on
    /// to its asserts), and the chain fails at the byte where the
    /// source now ends, its destination removed.
    #[test]
    fn mapped_unit_truncated_under_its_mapping_fails_the_chain() {
        let Some(root) = ext4_root("mapped-truncate") else {
            return;
        };
        let chunk = 2 << 20;
        let data = pattern(3 * chunk as usize);
        fs::write(root.join("src"), &data).unwrap();
        let (src, dst) = (root.join("src"), root.join("dst"));
        let progress = Arc::new(AtomicU64::new(0));
        let size = data.len() as u64;
        let copy = ChunkedCopy::open(TaskOp::Copy, &src, &dst, size, Arc::clone(&progress));
        let cut = chunk + (1 << 20) + 100;
        let mover = CutUnderTheMap {
            copy: copy.unwrap(),
            cut,
        };
        let chain = Chain::new(1, size, chunk, progress, Arc::default(), Box::new(mover));
        match drive(chain) {
            (2, PlanOutcome::Failed(e)) => {
                assert_eq!(e.message, format!("local source truncated at byte {cut}"));
            }
            (units, _) => panic!("the cut unit must fail the chain, ran {units}"),
        }
        assert!(!dst.exists(), "a destination with a hole survived");
        assert_eq!(fs::metadata(&src).unwrap().len(), cut);
    }

    #[test]
    fn copy_tree_recreates_symlinks() {
        let root = temp_root("transfer-links");
        fs::create_dir_all(root.join("src/sub")).unwrap();
        fs::write(root.join("src/sub/file"), b"payload").unwrap();
        // A self-referential link (would loop forever if followed) and
        // a link to a sibling file (would be deep-copied if followed).
        std::os::unix::fs::symlink("loop", root.join("src/loop")).unwrap();
        std::os::unix::fs::symlink("sub/file", root.join("src/alias")).unwrap();
        let progress = AtomicU64::new(0);
        let moved = copy_tree(&root.join("src"), &root.join("dst"), &progress).unwrap();
        assert_eq!(moved, 7, "only real file contents count");
        assert_eq!(
            fs::read_link(root.join("dst/loop")).unwrap(),
            PathBuf::from("loop")
        );
        assert_eq!(
            fs::read_link(root.join("dst/alias")).unwrap(),
            PathBuf::from("sub/file")
        );
        assert_eq!(fs::read(root.join("dst/sub/file")).unwrap(), b"payload");
    }
}
