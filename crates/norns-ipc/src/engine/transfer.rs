//! The data plane: chunked, zero-copy file transfers.
//!
//! Table II of the paper ranks transfer plugins by how little the CPU
//! touches the data: `sendfile` and `fallocate`+`mmap` beat buffered
//! read/write loops. This module is that idea on modern primitives.
//! README § Data-plane architecture holds the raw-syscall measurements
//! behind each rule (2-vCPU reference box, Linux 6.18):
//!
//! * **One plan per copy** — every local copy, one file of any size or
//!   a whole tree, is one [`LocalCopy`]: the input is walked once and
//!   its files' bytes laid end to end, so small files share a unit and
//!   a large one spans many. A unit of up to `chunk_size` bytes is one
//!   scheduler dispatch: a *scheduling quantum* (the policy
//!   re-arbitrates every `chunk_size`), a cancel point and a progress
//!   step — not a unit of parallelism. A transfer is a **chain**: at
//!   most one of its units is queued or on a worker at a time, and the
//!   worker that finishes one issues the next. Buffered writers of one
//!   inode serialise on its write lock (`i_rwsem`), so more workers
//!   inside one destination file move bytes no faster and pay the lock
//!   hand-offs; the pool's other workers are worth more on *other*
//!   files. A remote transfer is a chain too: the receiving end lands a
//!   payload with one copy, so a second connection only queued on that
//!   same lock.
//! * **One landing rule** — every destination (a local leaf, a pull, a
//!   peer's `Prepare`, a memory task) is created or emptied by
//!   [`open_landing`], and one longer than [`LANDING_FLOOR`] — a length,
//!   never `chunk_size` — gets all its blocks from `fallocate(2)`
//!   ([`preallocate`]) before its first byte, as the paper's plugins
//!   do. A `set_len` would only give it a length: a sparse file on
//!   ext4, every page of which pays for delayed allocation when it is
//!   written, and a disk that cannot hold it fails mid-copy or at
//!   writeback, after the task reported `Finished`. Allocated, a full
//!   disk or quota fails before any of the file's bytes move.
//! * **The mover rule** — a local file longer than the same floor whose
//!   two ends are both on ext4 (one `fstatfs(2)` each, when it opens)
//!   takes the paper's `fallocate`+`mmap` path: each unit maps its
//!   source range read-only with `MAP_SHARED | MAP_POPULATE` and lands
//!   it with one `pwrite(2)` from the mapping ([`SourceMap`]).
//!   Everything else moves byte ranges with `copy_file_range(2)`, which
//!   stays in the kernel: pairs not on ext4 (tmpfs, where the mapped
//!   write is slower, and reflink or offload filesystems, where the
//!   call is a clone), files at or below the floor (where the mapping
//!   costs more than it saves), and a unit whose mapping the kernel
//!   refuses. Where the call refuses the pair (`EXDEV`, `EINVAL`,
//!   `ENOSYS`, …) the range degrades to a pooled-buffer `pread`/`pwrite`
//!   loop — one reusable buffer per worker thread, never an allocation
//!   per transfer. A source truncated under a mapping raises no signal:
//!   the kernel reads the mapping inside `pwrite`, which comes up short
//!   and then fails `EFAULT`, and the unit fails as a short one does.
//! * **Live progress** — every kernel round-trip advances a per-task
//!   atomic, which `query()` overlays on `bytes_moved`; pollers see a
//!   transfer advance instead of `0 → total` at completion (the
//!   paper's `NORNS_EPENDING` polling semantics).

use std::cell::RefCell;
use std::ffi::{c_int, c_long, c_void};
use std::fs::{self, File, Metadata, OpenOptions, Permissions};
use std::io;
use std::os::unix::fs::{FileExt, MetadataExt, OpenOptionsExt};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use norns_proto::{ErrorCode, TaskOp};
use norns_sched::durability::{Op, Route};

use super::error::EngineError;

/// Default data-plane chunk size (8 MiB): large enough that the
/// per-chunk scheduler round-trip is noise (a local copy pays one per
/// chunk, on the worker that just finished the previous one), small
/// enough that the arbitration policy, a cancel and `query()` progress
/// get a say every few milliseconds of a large transfer; a remote unit's
/// bytes in flight too, and nothing else ([`LANDING_FLOOR`] lands files).
pub const DEFAULT_CHUNK_SIZE: u64 = 8 << 20;

/// Floor on the configurable chunk size: below this the per-chunk
/// dispatch overhead dominates.
pub const MIN_CHUNK_SIZE: u64 = 64 << 10;

/// The landing rule's one threshold (module docs): where an allocated,
/// mapped copy stops losing to an unallocated `copy_file_range` one,
/// timed whole through the engine on ext4 (README § Zero-copy path).
pub(crate) const LANDING_FLOOR: u64 = 768 << 10;

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
fn preallocate(file: &File, path: &Path, len: u64) -> io::Result<()> {
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

/// Open `path` as a transfer's source — a local leaf, a push, a peer's
/// `Fetch`. `O_NONBLOCK` keeps a FIFO from holding the worker in
/// `open(2)` until a writer shows up (a regular file ignores the flag),
/// and anything but a regular file is refused: it has no length to
/// plan by.
pub(crate) fn open_source(path: &Path) -> Result<(File, Metadata), EngineError> {
    const O_NONBLOCK: i32 = 0o4000;
    let file = OpenOptions::new()
        .read(true)
        .custom_flags(O_NONBLOCK)
        .open(path)?;
    let meta = file.metadata()?;
    if !meta.is_file() {
        return Err(not_a_file(path));
    }
    Ok((file, meta))
}

/// The refusal of a source that is not a regular file.
fn not_a_file(path: &Path) -> EngineError {
    EngineError::bad_args(format!("{} is not a regular file", path.display()))
}

/// Create or empty `path`, the destination of a `len`-byte transfer,
/// and allocate it if it is longer than [`LANDING_FLOOR`]: the one
/// place a destination is made (module docs). It is opened *without*
/// `O_TRUNC` and compared with a local `source` by `(st_dev, st_ino)`
/// first — a hard link or symlink to the source (or the same file seen
/// through two overlapping dataspaces) is another path to the same
/// inode, and emptying it would destroy the data being copied.
pub(crate) fn open_landing(
    path: &Path,
    len: u64,
    source: Option<(&Path, &Metadata)>,
) -> Result<File, EngineError> {
    let file = with_parent(path, |path| {
        OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
    })?;
    let old = file.metadata()?;
    if let Some((src, meta)) = source {
        if (old.dev(), old.ino()) == (meta.dev(), meta.ino()) {
            return Err(EngineError::bad_args(format!(
                "source {} and destination {} are the same file",
                src.display(),
                path.display()
            )));
        }
    }
    if old.len() > 0 {
        file.set_len(0)?;
    }
    if len > LANDING_FLOOR {
        preallocate(&file, path, len)?;
    }
    Ok(file)
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
    /// Move the issued unit's range, all of it. No mover reads the
    /// task's abort flag: the chain reads it around each unit, so a
    /// cancel lands between units, local or remote alike.
    fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError>;
    /// Terminal side effects: commit a transfer whose every range
    /// `landed`, or remove what an interrupted one left behind.
    fn finish(&mut self, landed: bool) -> Result<(), EngineError>;
    /// A landing's op and route, as the durability table reads them.
    fn landing(&self) -> (Op, Route) {
        (Op::Copy, Route::LocalCopy)
    }
    /// Free a landed `Move`'s source, on the table's `FreeSource`.
    fn free_source(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

/// A transfer decomposed into scheduler sub-units (a local copy or
/// remote staging), its ranges in order.
///
/// The units run as a **chain**: one unit is issued — in the scheduler
/// or on a worker — at a time, the planning dispatch being the first,
/// and the worker that ran a unit issues its successor. The chain is a
/// value with one owner, whoever holds that one unit: it is consumed
/// by every call, and only `step` hands it back — so nothing runs
/// behind a stop and the mover's `finish` runs once.
pub(crate) struct Chain {
    pub task_id: u64,
    size: u64,
    chunk_size: u64,
    /// Where the issued unit's range starts.
    offset: u64,
    progress: Arc<AtomicU64>,
    /// Set by `Engine::cancel` on an in-progress task; observed around
    /// every unit, and nowhere else.
    abort: Arc<AtomicBool>,
    mover: Box<dyn RangeMover>,
}

/// What running the issued unit left.
pub(crate) enum Step {
    /// Chunks remain: the chain, to be put in front of the scheduler
    /// again (or [`Chain::abort`]ed if it cannot be).
    Next(Box<Chain>),
    /// Every range landed: the chain, to [`Chain::commit`].
    Landed(Box<Chain>),
    End(End),
}

/// A run's end — a chain spent, failed or cancelled, its mover
/// finished, or a task that ran whole — and what it landed with.
pub(crate) struct End {
    pub task_id: u64,
    pub outcome: PlanOutcome,
    pub spent: Spent,
}

/// What a landing leaves for the durability table: nothing (a removal,
/// a memory write, a run that did not land), a rename (its source went
/// with it), or a chain's spent mover, which frees a `Move`'s source.
pub(crate) enum Spent {
    Nothing,
    Renamed,
    Mover(Box<dyn RangeMover>),
}

impl Spent {
    pub fn landing(&self) -> (Op, Route) {
        match self {
            Spent::Nothing => (Op::Copy, Route::LocalCopy),
            Spent::Renamed => (Op::Move, Route::Rename),
            Spent::Mover(mover) => mover.landing(),
        }
    }
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
    /// the chain if it failed or met the abort flag (read before the
    /// range, which then moves nothing, and again after it). A failure
    /// beats a cancel seen in the same unit.
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
        match stopped {
            None if self.offset < self.size => Step::Next(self),
            None => Step::Landed(self),
            Some(_) => Step::End(self.end(stopped)),
        }
    }

    /// End a landed chain: the mover commits if the task's lifecycle
    /// `granted` it, or removes what it wrote — a cancel came first.
    pub fn commit(self, granted: bool) -> End {
        self.end((!granted).then_some(PlanOutcome::Cancelled))
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
        let spent = match outcome {
            PlanOutcome::Done(_) => Spent::Mover(self.mover),
            _ => Spent::Nothing,
        };
        End {
            task_id: self.task_id,
            outcome,
            spent,
        }
    }
}

/// A local copy or cross-filesystem move — one file of any size or a
/// whole tree — planned once: a unit is up to `chunk_size` bytes of
/// `(leaf, range)` pieces, the leaves' bytes laid end to end in walk
/// order. A leaf opens when the first unit reaches it and closes behind
/// its last byte: one destination inode, one writer (module docs).
#[derive(Default)]
pub(crate) struct LocalCopy {
    /// A `Move`'s source, freed when the durability table says.
    frees: Option<PathBuf>,
    /// The input is a directory.
    tree: bool,
    leaves: Vec<Leaf>,
    /// `(destination, target)`, made once every leaf landed.
    links: Vec<(PathBuf, PathBuf)>,
    /// The leaf the next unit starts in, and its files once open.
    next: usize,
    open: Option<Pair>,
    size: u64,
    progress: Arc<AtomicU64>,
}

/// One regular file of a [`LocalCopy`], at `start` in the chain's bytes.
struct Leaf {
    src: PathBuf,
    dst: PathBuf,
    start: u64,
    len: u64,
    permissions: Permissions,
}

/// A leaf's open files; `mapped` if each unit maps its source range.
struct Pair {
    src: File,
    dst: File,
    mapped: bool,
}

impl LocalCopy {
    /// Walk `src` into the plan of its copy to `dst`. A source that is
    /// not a file, a directory or a symlink fails it before any byte
    /// moves.
    pub fn plan(
        op: TaskOp,
        src: &Path,
        dst: &Path,
        progress: Arc<AtomicU64>,
    ) -> Result<LocalCopy, EngineError> {
        let mut copy = LocalCopy {
            frees: (op == TaskOp::Move).then(|| src.to_path_buf()),
            progress,
            ..LocalCopy::default()
        };
        copy.walk(src.to_path_buf(), dst.to_path_buf())?;
        Ok(copy)
    }

    /// The plan as task `task_id`'s chain of `chunk_size`-byte units.
    pub fn chain(self, task_id: u64, chunk_size: u64, abort: Arc<AtomicBool>) -> Box<Chain> {
        let (size, progress) = (self.size, Arc::clone(&self.progress));
        Chain::new(task_id, size, chunk_size, progress, abort, Box::new(self))
    }

    /// Plan `src` → `dst`, in name order. `symlink_metadata`, not
    /// `metadata`: a symlink is recreated as one, so a self-referential
    /// link cannot loop the walk and a link's target is not copied.
    fn walk(&mut self, src: PathBuf, dst: PathBuf) -> Result<(), EngineError> {
        let meta = fs::symlink_metadata(&src)?;
        let kind = meta.file_type();
        if kind.is_symlink() {
            self.links.push((dst, fs::read_link(&src)?));
        } else if kind.is_dir() {
            self.tree = true;
            fs::create_dir_all(&dst)?;
            let mut entries: Vec<_> = fs::read_dir(&src)?.collect::<io::Result<_>>()?;
            entries.sort_by_key(|e| e.file_name());
            for entry in entries {
                self.walk(entry.path(), dst.join(entry.file_name()))?;
            }
        } else if kind.is_file() {
            let (start, len, permissions) = (self.size, meta.len(), meta.permissions());
            self.leaves.push(Leaf {
                src,
                dst,
                start,
                len,
                permissions,
            });
            self.size += len;
        } else {
            return Err(not_a_file(&src));
        }
        Ok(())
    }
}

impl Leaf {
    /// Open the leaf's source and land its destination through
    /// [`open_landing`]; one longer than [`LANDING_FLOOR`] with both
    /// ends on ext4 is mapped.
    fn open(&self) -> Result<Pair, EngineError> {
        let (src, meta) = open_source(&self.src)?;
        let dst = open_landing(&self.dst, self.len, Some((&self.src, &meta)))?;
        let mapped = self.len > LANDING_FLOOR && on_ext4(&src) && on_ext4(&dst);
        Ok(Pair { src, dst, mapped })
    }
}

impl Pair {
    /// Land `len` bytes at the leaf's `offset`: from `map`, its source
    /// range mapped, or through [`copy_range`] without one. A range that
    /// comes up short means the source shrank after the plan sized it:
    /// a preallocated destination would keep its planned length with a
    /// hole where the data should be.
    fn land(
        &self,
        map: Option<SourceMap>,
        offset: u64,
        len: u64,
        progress: &AtomicU64,
    ) -> Result<(), EngineError> {
        let moved = match map {
            // A cut inside the mapping's last page reads as zeros up to
            // the page's end, not as a fault: the source's length says
            // where its data stops.
            Some(map) => map
                .write_to(&self.dst, progress)?
                .min(self.src.metadata()?.len().saturating_sub(offset)),
            None => copy_range(&self.src, &self.dst, offset, len, progress)?,
        };
        if moved < len {
            return Err(truncated("local", offset + moved));
        }
        Ok(())
    }
}

impl RangeMover for LocalCopy {
    /// Land the unit's pieces, leaf by leaf. The last unit takes every
    /// leaf left, so empty files at the end land too.
    fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError> {
        let end = offset + len;
        while let Some(leaf) = self.leaves.get(self.next) {
            if leaf.start >= end && end < self.size {
                break;
            }
            let pair = match &self.open {
                Some(pair) => pair,
                None => self.open.insert(leaf.open()?),
            };
            let (from, to) = (
                offset.max(leaf.start) - leaf.start,
                end.min(leaf.start + leaf.len) - leaf.start,
            );
            let map = pair
                .mapped
                .then(|| SourceMap::new(&pair.src, from, to - from));
            pair.land(map.flatten(), from, to - from, &self.progress)?;
            if to < leaf.len {
                break;
            }
            self.open = None;
            self.next += 1;
        }
        Ok(())
    }

    /// Landed: give each leaf its source's permissions and make the
    /// links. Interrupted: remove every file the copy created or
    /// emptied — a preallocated or half-written one would pass for
    /// staged data.
    fn finish(&mut self, landed: bool) -> Result<(), EngineError> {
        let written = self.next + usize::from(self.open.take().is_some());
        if !landed {
            for leaf in &self.leaves[..written] {
                let _ = fs::remove_file(&leaf.dst);
            }
            return Ok(());
        }
        for leaf in &self.leaves {
            let _ = fs::set_permissions(&leaf.dst, leaf.permissions.clone());
        }
        for (dst, target) in &self.links {
            if fs::symlink_metadata(dst).is_ok() {
                fs::remove_file(dst)?;
            }
            with_parent(dst, |dst| std::os::unix::fs::symlink(target, dst))?;
        }
        Ok(())
    }

    fn landing(&self) -> (Op, Route) {
        let op = if self.frees.is_some() {
            Op::Move
        } else {
            Op::Copy
        };
        (op, Route::LocalCopy)
    }

    fn free_source(&mut self) -> Result<(), EngineError> {
        match &self.frees {
            Some(src) if self.tree => fs::remove_dir_all(src)?,
            Some(src) => fs::remove_file(src)?,
            None => {}
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
        plan_local(
            TaskOp::Copy,
            &root.join("src"),
            &root.join("dst"),
            chunk,
            abort,
        )
    }

    /// `src` → `dst` as one [`LocalCopy`] chain in `chunk`-sized units.
    fn plan_local(
        op: TaskOp,
        src: &Path,
        dst: &Path,
        chunk: u64,
        abort: &Arc<AtomicBool>,
    ) -> Box<Chain> {
        let copy = LocalCopy::plan(op, src, dst, Arc::default()).unwrap();
        copy.chain(1, chunk, Arc::clone(abort))
    }

    /// Drive `chain` the way the engine does — run the issued unit,
    /// issue the next when handed it back — to its end; the units run.
    pub(crate) fn drive(mut chain: Box<Chain>) -> (u64, PlanOutcome) {
        let mut units = 1;
        loop {
            match chain.step() {
                Step::Next(next) => chain = next,
                Step::Landed(chain) => return (units, chain.commit(true).outcome),
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

    /// A file longer than the landing floor has a block behind every
    /// byte of its destination's length once its first unit ran, before
    /// its second.
    #[test]
    fn prealloc_a_long_file_is_allocated_by_its_first_unit() {
        let root = temp_root("transfer-prealloc");
        let data = pattern((LANDING_FLOOR + MIN_CHUNK_SIZE * 5 + 17) as usize);
        let rest = (data.len() as u64).div_ceil(MIN_CHUNK_SIZE) - 1;
        let chain = plan_copy(&root, &data, MIN_CHUNK_SIZE, &Arc::default());
        let Step::Next(chain) = chain.step() else {
            panic!("{rest} chunks remain");
        };
        assert_allocated(&root.join("dst"), data.len() as u64);
        assert!(matches!(drive(chain), (n, PlanOutcome::Done(_)) if n == rest));
        assert_eq!(fs::read(root.join("dst")).unwrap(), data);
    }

    /// A destination that cannot be allocated fails the copy before any
    /// of its bytes move, and the file `open_landing` created or emptied
    /// goes with it. No file can be longer than `i64::MAX` bytes.
    #[test]
    fn prealloc_a_copy_that_cannot_allocate_leaves_no_destination() {
        let root = temp_root("transfer-efbig");
        fs::write(root.join("src"), b"source").unwrap();
        fs::write(root.join("dst"), b"an older copy").unwrap();
        let (src, dst) = (root.join("src"), root.join("dst"));
        let progress = Arc::new(AtomicU64::new(0));
        let mut copy = LocalCopy::plan(TaskOp::Copy, &src, &dst, Arc::clone(&progress)).unwrap();
        copy.leaves[0].len = i64::MAX as u64 + 1;
        copy.size = copy.leaves[0].len;
        let chain = Chain::new(
            1,
            copy.size,
            MIN_CHUNK_SIZE,
            progress,
            Arc::default(),
            Box::new(copy),
        );
        let (1, PlanOutcome::Failed(e)) = drive(chain) else {
            panic!("copied a file no file can hold");
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
        // The destination the first unit wrote must not survive a
        // failed transfer: it would fake a staged file.
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

    /// A leaf of `src` → `dst`, `len` bytes, opened: is it mapped?
    fn mapped(src: &Path, dst: &Path, len: usize) -> bool {
        fs::write(src, pattern(len)).unwrap();
        let copy = LocalCopy::plan(TaskOp::Copy, src, dst, Arc::default()).unwrap();
        copy.leaves[0].open().unwrap().mapped
    }

    /// The mover is picked by where both files live: mapped for two
    /// files on ext4, `copy_range` when either is on tmpfs — and for a
    /// file at or below the landing floor wherever it lives.
    #[test]
    fn mapped_only_when_both_files_are_on_ext4() {
        let Some(root) = ext4_root("mapped-select") else {
            return;
        };
        let long = LANDING_FLOOR as usize + 1;
        assert!(mapped(&root.join("src"), &root.join("dst"), long));
        let short = LANDING_FLOOR as usize;
        assert!(!mapped(&root.join("src"), &root.join("dst"), short));
        let shm = Path::new("/dev/shm");
        if !File::open(shm).is_ok_and(|dir| !on_ext4(&dir)) {
            eprintln!("{}: absent or ext4, tmpfs side not tested", shm.display());
            return;
        }
        let shm = temp_root_in(shm, "mapped-select");
        assert!(!mapped(&shm.join("src"), &root.join("dst"), long));
        assert!(!mapped(&root.join("src"), &shm.join("dst"), long));
    }

    /// A one-file [`LocalCopy`] whose leaf is opened the way its first
    /// unit opens it, and watched: whether its destination had a block
    /// behind every byte before the first byte landed, and whether the
    /// leaf was mapped.
    struct Watched {
        copy: LocalCopy,
        seen: Arc<Mutex<Option<(bool, bool)>>>,
    }

    impl RangeMover for Watched {
        fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError> {
            if self.copy.open.is_none() && self.copy.next == 0 {
                let leaf = &self.copy.leaves[0];
                let pair = leaf.open()?;
                let blocks = fs::metadata(&leaf.dst)?.blocks();
                *self.seen.lock() = Some((blocks * 512 >= leaf.len, pair.mapped));
                self.copy.open = Some(pair);
            }
            self.copy.move_range(offset, len)
        }

        fn finish(&mut self, landed: bool) -> Result<(), EngineError> {
            self.copy.finish(landed)
        }
    }

    /// How a file lands is read from its length alone: a 4 MiB ext4 file
    /// is allocated before its first byte and mapped whether its units
    /// are the smallest chunk or one unit of 1 GiB, and a file at the
    /// floor is neither, at either chunk size.
    #[test]
    fn landing_ignores_the_chunk_size() {
        let Some(root) = ext4_root("landing-chunk") else {
            return;
        };
        let (src, dst) = (root.join("src"), root.join("dst"));
        for (len, above) in [(4 << 20, true), (LANDING_FLOOR, false)] {
            let data = pattern(len as usize);
            fs::write(&src, &data).unwrap();
            for chunk in [MIN_CHUNK_SIZE, 1 << 30] {
                let progress = Arc::new(AtomicU64::new(0));
                let copy = LocalCopy::plan(TaskOp::Copy, &src, &dst, Arc::clone(&progress));
                let seen = Arc::default();
                let watched = Watched {
                    copy: copy.unwrap(),
                    seen: Arc::clone(&seen),
                };
                let chain = Chain::new(1, len, chunk, progress, Arc::default(), Box::new(watched));
                let (_, PlanOutcome::Done(moved)) = drive(chain) else {
                    panic!("{len} bytes in chunks of {chunk} did not land");
                };
                assert_eq!(moved, len);
                assert_eq!(
                    *seen.lock(),
                    Some((above, above)),
                    "{len} bytes in chunks of {chunk}: (allocated, mapped)"
                );
                assert!(fs::read(&dst).unwrap() == data);
            }
        }
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
        let data = pattern((LANDING_FLOOR + 3 * chunk + 1234) as usize);
        let units = (data.len() as u64).div_ceil(chunk);
        let chain = plan_copy(&root, &data, chunk, &Arc::default());
        let src = File::open(root.join("src")).unwrap();
        for offset in (0..data.len() as u64).step_by(chunk as usize) {
            let len = chunk.min(data.len() as u64 - offset);
            let map = SourceMap::new(&src, offset, len).expect("an ext4 unit maps");
            assert_eq!(map.at as u64 + map.lead as u64, offset);
            assert_eq!((map.len - map.lead) as u64, len);
        }
        assert!(
            matches!(drive(chain), (n, PlanOutcome::Done(moved)) if n == units && moved == data.len() as u64)
        );
        assert_eq!(fs::read(root.join("dst")).unwrap(), data);
    }

    /// A one-file [`LocalCopy`] whose source is truncated to `cut`
    /// bytes between mapping the unit that crosses `cut` and writing it.
    struct CutUnderTheMap {
        copy: LocalCopy,
        cut: u64,
    }

    impl RangeMover for CutUnderTheMap {
        fn move_range(&mut self, offset: u64, len: u64) -> Result<(), EngineError> {
            if offset + len <= self.cut {
                return self.copy.move_range(offset, len);
            }
            let pair = self
                .copy
                .open
                .as_ref()
                .expect("an earlier unit opened the file");
            let map = SourceMap::new(&pair.src, offset, len).expect("an ext4 unit maps");
            let src = OpenOptions::new()
                .write(true)
                .open(&self.copy.leaves[0].src);
            src.unwrap().set_len(self.cut).unwrap();
            pair.land(Some(map), offset, len, &self.copy.progress)
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
        let copy = LocalCopy::plan(TaskOp::Copy, &src, &dst, Arc::clone(&progress));
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

    /// A copy of the tree at `src` into `dst` is byte-exact: the same
    /// names, the same file bytes, the same link targets.
    pub(crate) fn assert_same_tree(src: &Path, dst: &Path) {
        let names = |dir: &Path| {
            let mut names: Vec<_> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(src), names(dst), "{}", dst.display());
        for name in names(src) {
            let (src, dst) = (src.join(&name), dst.join(&name));
            let kind = fs::symlink_metadata(&src).unwrap().file_type();
            if kind.is_symlink() {
                assert_eq!(fs::read_link(&src).unwrap(), fs::read_link(&dst).unwrap());
            } else if kind.is_dir() {
                assert_same_tree(&src, &dst);
            } else {
                assert!(
                    fs::read(&src).unwrap() == fs::read(&dst).unwrap(),
                    "{}",
                    dst.display()
                );
            }
        }
    }

    #[test]
    fn tree_copy_recreates_symlinks() {
        let root = temp_root("transfer-links");
        fs::create_dir_all(root.join("src/sub")).unwrap();
        fs::write(root.join("src/sub/file"), b"payload").unwrap();
        // A self-referential link (would loop forever if followed) and
        // a link to a sibling file (would be deep-copied if followed).
        std::os::unix::fs::symlink("loop", root.join("src/loop")).unwrap();
        std::os::unix::fs::symlink("sub/file", root.join("src/alias")).unwrap();
        let (src, dst) = (root.join("src"), root.join("dst"));
        let chain = plan_local(TaskOp::Copy, &src, &dst, MIN_CHUNK_SIZE, &Arc::default());
        assert_eq!(chain.size(), 7, "only real file contents count");
        assert!(matches!(drive(chain), (1, PlanOutcome::Done(7))));
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

    /// 1 024 files of 4 KiB at 64 KiB chunks: the files share units, so
    /// the copy costs ⌈total/chunk⌉ = 64 dispatches, not 1 024, and an
    /// empty file at either end of the walk lands too.
    #[test]
    fn tree_of_small_files_runs_in_total_over_chunk_units() {
        let root = temp_root("transfer-small-files");
        for dir in 0..4 {
            let dir = root.join(format!("src/d{dir}"));
            fs::create_dir_all(&dir).unwrap();
            for file in 0..256 {
                fs::write(
                    dir.join(format!("f{file:03}")),
                    &pattern(4096 + file)[file..],
                )
                .unwrap();
            }
        }
        fs::write(root.join("src/0-empty"), b"").unwrap();
        fs::write(root.join("src/z-empty"), b"").unwrap();
        let (src, dst) = (root.join("src"), root.join("dst"));
        let chain = plan_local(TaskOp::Copy, &src, &dst, MIN_CHUNK_SIZE, &Arc::default());
        let total = 1024 * 4096;
        assert_eq!(chain.size(), total);
        let units = total.div_ceil(MIN_CHUNK_SIZE);
        assert_eq!(units, 64);
        assert!(
            matches!(drive(chain), (n, PlanOutcome::Done(moved)) if n == units && moved == total)
        );
        assert_same_tree(&src, &dst);
    }

    /// Make a FIFO at `path`.
    pub(crate) fn mkfifo(path: &Path) {
        let made = std::process::Command::new("mkfifo").arg(path).status();
        assert!(made.unwrap().success(), "mkfifo {}", path.display());
    }
}
