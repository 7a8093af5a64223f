//! Small self-contained helpers: seeded inputs, order statistics, the
//! `/proc` readers behind the host-side metrics, and a minimal JSON
//! value (the container has no serde).

use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Seeded inputs.

/// SplitMix64: the generator every workload input is drawn from. The
/// programs under test never see the seed except as `SimConfig::seed`;
/// everything else reaches them as generated values.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `(seed, lane)` — one per driver, prober
    /// or purpose, so adding a consumer never shifts another's inputs.
    pub fn lane(seed: u64, lane: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        g.next();
        g
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a over a stream of words: the fingerprint two same-seed rounds
/// must share.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

// ---------------------------------------------------------------------------
// Order statistics.

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them
/// (exclusive method), so `compare` agrees with the acceptance check.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (q(1), q(2), q(3))
}

// ---------------------------------------------------------------------------
// Host-side readers.

/// TIME-WAIT sockets in this network namespace (`/proc/net/sockstat`).
pub fn tw_count() -> u64 {
    let Ok(s) = std::fs::read_to_string("/proc/net/sockstat") else {
        return 0;
    };
    s.lines()
        .find_map(|l| l.strip_prefix("TCP:"))
        .and_then(|rest| {
            let mut it = rest.split_whitespace();
            while let Some(k) = it.next() {
                let v = it.next()?;
                if k == "tw" {
                    return v.parse().ok();
                }
            }
            None
        })
        .unwrap_or(0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn unshare(flags: i32) -> i32;
    fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
    fn ioctl(fd: i32, request: u64, ...) -> i32;
    fn close(fd: i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) this process has used, every thread
/// included and exited threads too — the ORB spawns one per request, so
/// `/proc/self/task/*` would miss most of them, and `/proc/self/stat`
/// only counts in 10 ms ticks.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU masks as `sched_{get,set}affinity` take them: 1,024 CPUs.
type CpuMask = [u64; 16];

/// The CPUs (four at most) this process may run on. Ask before the first
/// [`pin_to_quietest`], which narrows the answer to one.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .take(4)
        .collect()
}

fn pin_to(cpu: usize) -> bool {
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// Restricts the calling thread (and every thread it spawns afterwards)
/// to the one of `cpus` on which a burst of thread spawns runs fastest
/// right now. Returns that CPU, or `None` when the kernel refused.
///
/// Why one CPU: on a 2-core host, where the scheduler places the ~10
/// threads a TCP round trip touches decides whether an admission takes
/// 0.6 ms or 1.2 ms, and every hand-off between simulated processes
/// crosses cores (README, "Hazards"). One core removes both as noise;
/// `cpu_us_per_op` still charges every thread.
///
/// Why the quietest: the cores of the shared host fall, one at a time
/// and for seconds to minutes, to half speed for exactly this kind of
/// work (a neighbour on the core's other hardware thread). Called before
/// every round, so a round starts where the machine is calm.
pub fn pin_to_quietest(cpus: &[usize]) -> Option<usize> {
    let burst = || {
        let t = std::time::Instant::now();
        for _ in 0..32 {
            std::thread::spawn(|| ()).join().ok();
        }
        t.elapsed()
    };
    let mut best = None;
    // Two looks at each CPU, interleaved: the better one counts.
    for &cpu in cpus.iter().chain(cpus) {
        if pin_to(cpu) {
            let took = burst();
            if best.is_none_or(|(least, _)| took < least) {
                best = Some((took, cpu));
            }
        }
    }
    let (_, cpu) = best?;
    pin_to(cpu).then_some(cpu)
}

const CLONE_NEWUSER: i32 = 0x1000_0000;
const CLONE_NEWNET: i32 = 0x4000_0000;
const AF_INET: i32 = 2;
const SOCK_DGRAM: i32 = 2;
const SIOCGIFFLAGS: u64 = 0x8913;
const SIOCSIFFLAGS: u64 = 0x8914;
const IFF_UP: i16 = 1;

/// `struct ifreq` as the two flag ioctls use it (40 bytes on 64-bit Linux).
#[repr(C)]
struct IfReq {
    name: [u8; 16],
    flags: i16,
    rest: [u8; 22],
}

/// Moves the calling thread — and every thread it spawns afterwards —
/// into a new, empty network namespace with loopback up. Returns whether
/// that worked; when it did not, the thread is where it was.
///
/// Why: every ORB call opens a TCP connection and leaves a TIME-WAIT
/// socket behind for 60 s, a `tcp_*` round leaves ≈6,000, and the
/// kernel's table (65,536 here) is one per namespace: in a full one the
/// same admission takes 430 µs instead of 280 µs. What the table holds
/// when a run starts is what ran on the machine in the minute before,
/// not the program under test. A namespace of its own gives every round
/// the drained table the workload is defined on, without the minute's
/// wait (README, "Hazards").
pub fn fresh_netns() -> bool {
    // SAFETY: `unshare` takes no pointers. Root needs only the first
    // call; otherwise a user namespace of its own (possible while the
    // process is still single-threaded, i.e. before the first round)
    // grants the right to make network namespaces, then and later.
    let moved = unsafe { unshare(CLONE_NEWNET) == 0 || unshare(CLONE_NEWUSER | CLONE_NEWNET) == 0 };
    moved && loopback_up()
}

/// `ip link set lo up` in the calling thread's network namespace.
fn loopback_up() -> bool {
    let mut req = IfReq {
        name: [0; 16],
        flags: 0,
        rest: [0; 22],
    };
    req.name[..2].copy_from_slice(b"lo");
    // SAFETY: `req` is a valid `struct ifreq` that outlives both ioctls,
    // which read its name and read or write its flags; `fd` is closed
    // exactly once.
    unsafe {
        let fd = socket(AF_INET, SOCK_DGRAM, 0);
        if fd < 0 {
            return false;
        }
        let mut ok = ioctl(fd, SIOCGIFFLAGS, &mut req as *mut IfReq) == 0;
        req.flags |= IFF_UP;
        ok = ok && ioctl(fd, SIOCSIFFLAGS, &req as *const IfReq) == 0;
        close(fd);
        ok
    }
}

// ---------------------------------------------------------------------------
// JSON.

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn obj(pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact one-line rendering. Numbers print with every digit Rust's
    /// shortest round-trip formatting keeps.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Multi-line rendering: the top two levels one entry per line,
    /// everything deeper compact.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Arr(a) if depth < 2 && !a.is_empty() => {
                out.push_str("[\n");
                for (i, v) in a.iter().enumerate() {
                    out.push_str(&pad);
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < a.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{close}]");
            }
            Json::Obj(m) if depth < 1 => {
                out.push_str("{\n");
                for (i, (k, v)) in m.iter().enumerate() {
                    out.push_str(&pad);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < m.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{close}}}");
            }
            other => other.write(out),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(a) => {
                out.push('[');
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i).copied() {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(m));
                    }
                    if !m.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at offset {}", self.i));
                    }
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at offset {}", self.i));
                    }
                    m.insert(k, self.value()?);
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(a));
                    }
                    if !a.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at offset {}", self.i));
                    }
                    a.push(self.value()?);
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at offset {}", self.i));
        }
        let mut out = Vec::new();
        while let Some(&b) = self.s.get(self.i) {
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                b => out.push(b),
            }
        }
        Err("unterminated string".into())
    }
}
