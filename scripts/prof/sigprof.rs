//! A sampling CPU profiler to `LD_PRELOAD` into a frame-pointer build.
//!
//! `scripts/profile.sh` builds this file with bare `rustc --crate-type
//! cdylib`. It stays outside the cargo workspace on purpose: it needs
//! `extern "C"` and `unsafe`, which the workspace does not admit.
//!
//! A constructor in `.init_array` arms `setitimer(ITIMER_PROF)`, so the
//! kernel sends `SIGPROF` per period of CPU time the process burns (at the
//! kernel tick, 250 Hz on a `HZ=250` kernel). The handler records the
//! interrupted instruction pointer and walks the frame-pointer (RBP) chain
//! from the `ucontext`; when the sample lands outside the executable's text
//! (a frameless libc leaf such as `memcpy`), the word at the stack pointer
//! is kept as the caller if it points into that text. Every word is read
//! through a pipe, so a corrupt chain ends the walk with `EFAULT` instead of
//! a crash. At exit the samples, `/proc/self/maps`, the process's user
//! and system CPU ticks and its minor and major page faults are written to
//! the file named by `SIGPROF_OUT`; without that variable the library does
//! nothing.
//!
//! Dump format, one record per line: `H key=value...` (header), `M <maps
//! line>`, `S <ip> <return address>...` (hexadecimal, innermost first).

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("sigprof reads x86_64 Linux ucontext registers");

use std::ffi::c_void;
use std::io::Write;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize};

/// Requested sampling period; the kernel rounds it up to its tick.
const PERIOD_US: i64 = 1_000;
/// Instruction pointer plus return addresses kept per sample.
const MAX_FRAMES: usize = 64;
/// One slot per sample: the frame count, then the frames.
const SLOT: usize = MAX_FRAMES + 1;
/// Samples kept (4.4 min of CPU at 250 Hz); later ones are counted only.
const MAX_SAMPLES: usize = 1 << 16;

static SAMPLES: [AtomicU64; SLOT * MAX_SAMPLES] = [const { AtomicU64::new(0) }; SLOT * MAX_SAMPLES];
static NEXT: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicUsize = AtomicUsize::new(0);
/// Held by the one handler walking a stack; starts held, until `init` has
/// set up what the handler reads.
static WALKING: AtomicBool = AtomicBool::new(true);
static PIPE_R: AtomicI32 = AtomicI32::new(-1);
static PIPE_W: AtomicI32 = AtomicI32::new(-1);
/// The executable's text range, for the frameless-leaf caller.
static TEXT_LO: AtomicU64 = AtomicU64::new(0);
static TEXT_HI: AtomicU64 = AtomicU64::new(0);

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;
/// `ucontext_t.uc_mcontext.gregs` (after `uc_flags`, `uc_link`, `uc_stack`).
const GREGS_OFFSET: usize = 40;
const REG_RBP: usize = 10;
const REG_RSP: usize = 15;
const REG_RIP: usize = 16;

#[repr(C)]
struct SigAction {
    handler: extern "C" fn(i32, *mut c_void, *mut c_void),
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

extern "C" {
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut c_void, n: usize) -> isize;
    fn write(fd: i32, buf: *const c_void, n: usize) -> isize;
    fn atexit(f: extern "C" fn()) -> i32;
    fn __errno_location() -> *mut i32;
}

#[used]
#[link_section = ".init_array"]
static INIT: extern "C" fn() = init;

extern "C" fn init() {
    if std::env::var_os("SIGPROF_OUT").is_none() {
        return;
    }
    if let Some((lo, hi)) = executable_text() {
        TEXT_LO.store(lo, Relaxed);
        TEXT_HI.store(hi, Relaxed);
    }
    let mut fds = [-1i32; 2];
    // SAFETY: `fds` has room for the two descriptors `pipe2` writes.
    if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } != 0 {
        return;
    }
    PIPE_R.store(fds[0], Relaxed);
    PIPE_W.store(fds[1], Relaxed);
    let act = SigAction {
        handler: on_sigprof,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    // SAFETY: `act` is a fully initialised `struct sigaction` whose handler
    // has the `SA_SIGINFO` signature; `dump` is an `extern "C" fn()`.
    unsafe {
        sigaction(SIGPROF, &act, std::ptr::null_mut());
        atexit(dump);
    }
    // Publishes the pipe and the text range to the handler, then starts it.
    WALKING.store(false, Release);
    arm(PERIOD_US);
}

/// Sets the profiling timer to `period_us` (0 disarms it).
fn arm(period_us: i64) {
    let t = || Timeval { sec: 0, usec: period_us };
    // SAFETY: a valid `itimerval`; the old value is not asked for.
    unsafe {
        setitimer(ITIMER_PROF, &Itimerval { interval: t(), value: t() }, std::ptr::null_mut())
    };
}

/// The lowest and highest address of the executable's executable mappings.
fn executable_text() -> Option<(u64, u64)> {
    let exe = std::fs::read_link("/proc/self/exe").ok()?;
    let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
    let mut range: Option<(u64, u64)> = None;
    for line in maps.lines() {
        let mut fields = line.split_whitespace();
        let (Some(span), Some(perms)) = (fields.next(), fields.next()) else { continue };
        if !perms.contains('x') || !line.ends_with(exe.to_str()?) {
            continue;
        }
        let (lo, hi) = span.split_once('-')?;
        let (lo, hi) = (u64::from_str_radix(lo, 16).ok()?, u64::from_str_radix(hi, 16).ok()?);
        range = Some(range.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
    }
    range
}

/// Reads the two words at `addr` through the probe pipe, so an unmapped
/// address is an `EFAULT` and not a fault. The caller holds `WALKING`.
fn read_words(addr: u64) -> Option<[u64; 2]> {
    let mut words = [0u64; 2];
    let n = std::mem::size_of_val(&words) as isize;
    // SAFETY: the kernel, not this process, reads `addr`, and reports an
    // unreadable address as `EFAULT`.
    let written = unsafe { write(PIPE_W.load(Relaxed), addr as *const c_void, n as usize) };
    if written <= 0 {
        return None;
    }
    // Drain even a short write (the words straddle into an unmapped page),
    // so the pipe is empty for the next probe.
    // SAFETY: `words` has room for the at most `n` bytes written.
    let drained =
        unsafe { read(PIPE_R.load(Relaxed), words.as_mut_ptr().cast(), written as usize) };
    (written == n && drained == n).then_some(words)
}

extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
    // One walker at a time: the probe pipe is shared, and `dump` takes the
    // flag for good before it reads the samples.
    if WALKING.swap(true, Acquire) {
        DROPPED.fetch_add(1, Relaxed);
        return;
    }
    let i = NEXT.fetch_add(1, Relaxed);
    if i < MAX_SAMPLES {
        // SAFETY: with `SA_SIGINFO` the kernel passes a valid `ucontext_t`,
        // whose general registers start at `GREGS_OFFSET`; `errno` is the
        // interrupted code's, restored before returning to it.
        unsafe {
            let errno = *__errno_location();
            record(&SAMPLES[i * SLOT..(i + 1) * SLOT], ctx.cast::<u8>().add(GREGS_OFFSET).cast());
            *__errno_location() = errno;
        }
    } else {
        DROPPED.fetch_add(1, Relaxed);
    }
    WALKING.store(false, Release);
}

/// Stores the instruction pointer and the return addresses of the
/// interrupted stack in `slot`, innermost first, after their count.
///
/// # Safety
///
/// `gregs` points to the saved general registers of an interrupted
/// thread (`mcontext_t.gregs`), and the caller holds `WALKING`.
unsafe fn record(slot: &[AtomicU64], gregs: *const u64) {
    let (rip, mut fp, rsp) = (*gregs.add(REG_RIP), *gregs.add(REG_RBP), *gregs.add(REG_RSP));
    let text = TEXT_LO.load(Relaxed)..TEXT_HI.load(Relaxed);
    slot[1].store(rip, Relaxed);
    let mut n = 1;
    if !text.contains(&rip) {
        if let Some([ret, _]) = read_words(rsp).filter(|[ret, _]| text.contains(ret)) {
            slot[1 + n].store(ret, Relaxed);
            n += 1;
        }
    }
    while n < MAX_FRAMES && fp != 0 && fp % 8 == 0 && fp >= rsp {
        let Some([next, ret]) = read_words(fp) else { break };
        if ret == 0 {
            break;
        }
        slot[1 + n].store(ret, Relaxed);
        n += 1;
        if next <= fp || next - fp > 1 << 24 {
            break;
        }
        fp = next;
    }
    slot[0].store(n as u64, Relaxed);
}

/// `[minflt, majflt, utime, stime]` of the whole process: page faults, then
/// CPU time in clock ticks.
fn proc_stat() -> Option<[u64; 4]> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 10, 12, 14 and 15; the first field after the parenthesised
    // command name is field 3.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse().ok();
    Some([field(10)?, field(12)?, field(14)?, field(15)?])
}

extern "C" fn dump() {
    arm(0);
    // Wait out a handler still walking, and keep every later one out.
    while WALKING.swap(true, Acquire) {
        std::hint::spin_loop();
    }
    let Some(path) = std::env::var_os("SIGPROF_OUT") else { return };
    let Ok(file) = std::fs::File::create(path) else { return };
    let mut out = std::io::BufWriter::new(file);
    let taken = NEXT.load(Relaxed).min(MAX_SAMPLES);
    let [minflt, majflt, utime, stime] = proc_stat().unwrap_or([0; 4]);
    // Exit is under way and has no one to report a failed write to.
    let _ = writeln!(
        out,
        "H samples={taken} dropped={} period_us={PERIOD_US} utime={utime} stime={stime} \
         minflt={minflt} majflt={majflt}",
        DROPPED.load(Relaxed)
    );
    for line in std::fs::read_to_string("/proc/self/maps").unwrap_or_default().lines() {
        let _ = writeln!(out, "M {line}");
    }
    for slot in SAMPLES.chunks_exact(SLOT).take(taken) {
        let n = slot[0].load(Relaxed) as usize;
        let _ = write!(out, "S");
        for frame in &slot[1..=n] {
            let _ = write!(out, " {:x}", frame.load(Relaxed));
        }
        let _ = writeln!(out);
    }
    let _ = out.flush();
}
