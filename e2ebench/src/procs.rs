//! Child processes under a guard. Measured children are launched through
//! a [`Spawner`]; each runs in its own process group with its output in
//! files, is reaped with its kernel resource accounting (`wait4`), and is
//! killed — group and all, so a coordinator's `nvmx-worker`s go with it —
//! on timeout and after it exits. The [`Daemon`] guard stops `nvmx-serve`
//! on every exit path, and [`TempDir`] removes the run's scratch files.

use serde::Value;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const SIGKILL: i32 = 9;
const EINTR: i32 = 4;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two timevals, then fourteen
/// longs starting with `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Kills process group `pgid` (ignoring "no such group").
fn kill_group(pgid: u32) {
    if let Ok(pgid) = i32::try_from(pgid) {
        // SAFETY: kill(2) takes plain integers and has no memory effects;
        // a negative pid addresses the group `spawn` created for the child.
        unsafe {
            kill(-pgid, SIGKILL);
        }
    }
}

/// Blocks until child `pid` exits, returning its raw wait status and peak
/// resident set (KiB).
fn reap(pid: i32) -> io::Result<(i32, u64)> {
    let mut status = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    loop {
        // SAFETY: both pointers reference live, writable locals of the
        // layouts wait4(2) fills on this target.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, u64::try_from(usage.longs[0]).unwrap_or(0)));
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
}

/// A finished child.
#[derive(Debug)]
pub struct Finished {
    /// Exit code, or the negated signal number for a killed child.
    pub code: i32,
    /// Spawn to reap.
    pub wall: Duration,
    /// Peak resident set, KiB, from the kernel's per-child accounting.
    pub maxrss_kib: u64,
    /// Captured stdout.
    pub stdout: String,
    /// Captured stderr.
    pub stderr: String,
    /// Whether the guard killed it for overrunning its limit.
    pub timed_out: bool,
}

impl Finished {
    /// `true` for a clean exit.
    pub fn ok(&self) -> bool {
        self.code == 0 && !self.timed_out
    }

    /// A one-line account of a failed child for the benchmark's report.
    pub fn describe(&self) -> String {
        let tail: String = self
            .stderr
            .lines()
            .last()
            .unwrap_or("")
            .chars()
            .take(200)
            .collect();
        if self.timed_out {
            format!(
                "timed out after {:.1}s; stderr: {tail}",
                self.wall.as_secs_f64()
            )
        } else {
            format!("exit {}; stderr: {tail}", self.code)
        }
    }
}

/// Exit, wall time and peak RSS of one reaped child.
#[derive(Debug, Clone, Copy)]
struct Reaped {
    code: i32,
    wall: Duration,
    maxrss_kib: u64,
    timed_out: bool,
}

/// Runs `cmd` to completion (at most `limit`) in its own process group,
/// with stdin closed and stdout/stderr written to the given files.
fn run_direct(
    cmd: &mut Command,
    stdout: &Path,
    stderr: &Path,
    limit: Duration,
) -> io::Result<Reaped> {
    cmd.stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?)
        .process_group(0);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id();
    // The Child handle is dropped without waiting: `reap` owns the wait so
    // the rusage comes back with the status.
    drop(child);
    let (tx, rx) = mpsc::channel();
    let reaper = std::thread::spawn(move || {
        let reaped = reap(pid as i32);
        let _ = tx.send((reaped, Instant::now()));
    });
    let (reaped, end, timed_out) = match rx.recv_timeout(limit) {
        Ok((reaped, end)) => (reaped, end, false),
        Err(_) => {
            kill_group(pid);
            let (reaped, end) = rx.recv().map_err(io::Error::other)?;
            (reaped, end, true)
        }
    };
    reaper
        .join()
        .map_err(|_| io::Error::other("reaper thread panicked"))?;
    // Whatever the leader left behind in its group goes too.
    kill_group(pid);
    let (status, maxrss_kib) = reaped?;
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok(Reaped {
        code,
        wall: end - start,
        maxrss_kib,
        timed_out,
    })
}

fn text(s: &std::ffi::OsStr) -> io::Result<Value> {
    s.to_str()
        .map(|s| Value::Str(s.to_owned()))
        .ok_or_else(|| io::Error::other(format!("{s:?} is not UTF-8")))
}

/// The spawner's request for one child: `cmd` plus where its output goes
/// and how long it may run.
fn request(cmd: &Command, stdout: &Path, stderr: &Path, limit: Duration) -> io::Result<String> {
    let env = cmd
        .get_envs()
        .map(|(k, v)| {
            Ok(Value::Array(vec![
                text(k)?,
                v.map_or(Ok(Value::Null), text)?,
            ]))
        })
        .collect::<io::Result<_>>()?;
    let fields = vec![
        ("program".to_owned(), text(cmd.get_program())?),
        (
            "args".to_owned(),
            Value::Array(cmd.get_args().map(text).collect::<io::Result<_>>()?),
        ),
        (
            "cwd".to_owned(),
            cmd.get_current_dir()
                .map_or(Ok(Value::Null), |d| text(d.as_os_str()))?,
        ),
        ("env".to_owned(), Value::Array(env)),
        ("stdout".to_owned(), text(stdout.as_os_str())?),
        ("stderr".to_owned(), text(stderr.as_os_str())?),
        ("limit_ms".to_owned(), Value::Uint(limit.as_millis() as u64)),
    ];
    serde_json::to_string(&Value::Object(fields)).map_err(io::Error::other)
}

/// Runs one request line, answering with the reaped child's line.
fn serve_request(line: &str) -> io::Result<String> {
    let bad = |what: &str| io::Error::other(format!("malformed spawner request: {what}"));
    let req: Value = serde_json::from_str(line).map_err(io::Error::other)?;
    let field = |k: &str| req.get(k).and_then(Value::as_str).ok_or_else(|| bad(k));
    let mut cmd = Command::new(field("program")?);
    for arg in req
        .get("args")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("args"))?
    {
        cmd.arg(arg.as_str().ok_or_else(|| bad("args"))?);
    }
    if let Some(cwd) = req.get("cwd").and_then(Value::as_str) {
        cmd.current_dir(cwd);
    }
    for pair in req
        .get("env")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("env"))?
    {
        match pair.as_array() {
            Some([Value::Str(k), Value::Str(v)]) => cmd.env(k, v),
            Some([Value::Str(k), Value::Null]) => cmd.env_remove(k),
            _ => return Err(bad("env")),
        };
    }
    let limit = req
        .get("limit_ms")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("limit_ms"))?;
    let r = run_direct(
        &mut cmd,
        Path::new(field("stdout")?),
        Path::new(field("stderr")?),
        Duration::from_millis(limit),
    )?;
    let fields = vec![
        ("code".to_owned(), Value::Int(i64::from(r.code))),
        ("wall_ns".to_owned(), Value::Uint(r.wall.as_nanos() as u64)),
        ("maxrss_kib".to_owned(), Value::Uint(r.maxrss_kib)),
        ("timed_out".to_owned(), Value::Bool(r.timed_out)),
    ];
    serde_json::to_string(&Value::Object(fields)).map_err(io::Error::other)
}

/// The spawner's main loop (`nvmx-e2ebench --spawner`): one request line
/// in, one reply line out (`{"error": ...}` when the child could not be
/// run), until stdin closes.
///
/// # Errors
///
/// When stdin or stdout fail.
pub fn serve_spawner() -> io::Result<()> {
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        let reply = serve_request(&line?).unwrap_or_else(|e| {
            let fields = vec![("error".to_owned(), Value::Str(e.to_string()))];
            serde_json::to_string(&Value::Object(fields)).expect("plain JSON")
        });
        writeln!(out, "{reply}")?;
        out.flush()?;
    }
    Ok(())
}

/// Launches the children whose time and memory are measured.
///
/// The kernel's per-child peak RSS includes the memory of the process
/// that spawned the child (its address space is the one `exec` leaves),
/// so children are not spawned by the benchmark, which holds reference
/// artifacts, but by this small helper started before any of them: a
/// copy of this executable in `--spawner` mode. It times each child from
/// spawn to reap itself, so the request round trip is not measured.
pub struct Spawner {
    child: Child,
    pipes: Mutex<Option<(ChildStdin, BufReader<ChildStdout>)>>,
}

impl Spawner {
    /// Starts the helper.
    ///
    /// # Errors
    ///
    /// When this executable cannot be located or spawned.
    pub fn start() -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            pipes: Mutex::new(Some((stdin, stdout))),
        })
    }

    /// Runs `cmd` to completion (at most `limit`), with stdin closed and
    /// stdout/stderr captured through files named after `tag` in `dir`.
    ///
    /// # Errors
    ///
    /// When the child cannot be spawned or reaped, or the helper is gone.
    pub fn run(
        &self,
        cmd: &Command,
        dir: &Path,
        tag: &str,
        limit: Duration,
    ) -> io::Result<Finished> {
        let out_path = dir.join(format!("{tag}.stdout"));
        let err_path = dir.join(format!("{tag}.stderr"));
        let line = request(cmd, &out_path, &err_path, limit)?;
        let reply = {
            let mut pipes = self.pipes.lock().expect("spawner pipes");
            let (stdin, stdout) = pipes
                .as_mut()
                .ok_or_else(|| io::Error::other("spawner closed"))?;
            writeln!(stdin, "{line}")?;
            stdin.flush()?;
            let mut reply = String::new();
            if stdout.read_line(&mut reply)? == 0 {
                return Err(io::Error::other("spawner exited"));
            }
            reply
        };
        let reply: Value = serde_json::from_str(&reply).map_err(io::Error::other)?;
        if let Some(error) = reply.get("error").and_then(Value::as_str) {
            return Err(io::Error::other(error.to_owned()));
        }
        let number = |k: &str| reply.get(k).and_then(Value::as_u64).unwrap_or(0);
        let finished = Finished {
            code: reply
                .get("code")
                .and_then(Value::as_i64)
                .map_or(-1, |c| c as i32),
            wall: Duration::from_nanos(number("wall_ns")),
            maxrss_kib: number("maxrss_kib"),
            stdout: std::fs::read_to_string(&out_path).unwrap_or_default(),
            stderr: std::fs::read_to_string(&err_path).unwrap_or_default(),
            timed_out: reply
                .get("timed_out")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        };
        let _ = std::fs::remove_file(out_path);
        let _ = std::fs::remove_file(err_path);
        Ok(finished)
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing its stdin ends the helper's loop; it has no child left.
        if let Ok(mut pipes) = self.pipes.lock() {
            pipes.take();
        }
        let _ = self.child.wait();
    }
}

/// Limit on any one child; a child that overruns it is killed and failed.
const CHILD_LIMIT: Duration = Duration::from_secs(60);

/// How the campaign binaries run: inside the per-run scratch directory,
/// writing artifacts to `<tmp>/out`, always in full (not `NVMX_FAST`)
/// mode, launched through the spawner.
pub struct Runner<'a> {
    /// Launches the measured children.
    pub spawner: &'a Spawner,
    /// Directory holding the campaign binaries.
    pub bins: &'a Path,
    /// Per-run scratch directory (absolute).
    pub tmp: &'a Path,
}

impl Runner<'_> {
    /// A command for campaign binary `bin`.
    pub fn command(&self, bin: &str) -> Command {
        let mut cmd = Command::new(self.bins.join(bin));
        cmd.current_dir(self.tmp)
            .env("NVMX_OUT", self.tmp.join("out"))
            .env_remove("NVMX_FAST");
        cmd
    }

    /// The leased path: `config` over 2 pipe workers of 1 thread each,
    /// capturing the merged stream into `capture_dir`.
    pub fn leased(&self, config: &Path, capture_dir: &Path) -> Command {
        let mut cmd = self.command("nvmx-coordinator");
        cmd.args(["run", "--config"])
            .arg(config)
            .args([
                "--transport",
                "pipe",
                "--workers",
                "2",
                "--threads",
                "1",
                "--capture",
            ])
            .arg(capture_dir);
        cmd
    }

    /// Runs `cmd` to completion, output captured under `tag`.
    ///
    /// # Errors
    ///
    /// When the child cannot be spawned or reaped.
    pub fn run(&self, cmd: &Command, tag: &str) -> io::Result<Finished> {
        self.spawner.run(cmd, self.tmp, tag, CHILD_LIMIT)
    }

    /// The results CSV `run` writes for study `name`.
    pub fn out_csv(&self, name: &str) -> PathBuf {
        self.tmp.join("out").join(format!("{name}_results.csv"))
    }
}

/// A running `nvmx-serve`, killed and reaped on drop. It stays in the
/// benchmark's process group (it starts no children of its own), so
/// whatever stops the benchmark's group stops it too.
pub struct Daemon {
    child: Child,
    /// The endpoint spec it printed on startup.
    pub endpoint: String,
}

impl Daemon {
    /// Spawns `cmd` (an `nvmx-serve --listen ...` command) with its stderr
    /// written to `stderr`, and waits up to the per-child limit for its
    /// `nvmx-serve listening <spec>` line.
    ///
    /// # Errors
    ///
    /// When the daemon cannot be spawned, or exits or stalls before
    /// listening (quoting the last line of its stderr).
    pub fn spawn(cmd: &mut Command, stderr: &Path) -> io::Result<Self> {
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(File::create(stderr)?)
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // From here on, dropping `daemon` on an error kills and reaps it.
        let mut daemon = Self {
            child,
            endpoint: String::new(),
        };
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let _ = tx.send(BufReader::new(stdout).read_line(&mut line).map(|_| line));
        });
        let greeting = rx.recv_timeout(CHILD_LIMIT);
        let failed = |what: String| {
            let log = std::fs::read_to_string(stderr).unwrap_or_default();
            let tail: String = log.lines().last().unwrap_or("").chars().take(200).collect();
            io::Error::other(format!("{what}; stderr: {tail}"))
        };
        let line = match greeting {
            Ok(line) => line?,
            Err(_) => {
                // Killing the daemon closes its stdout, which ends the read.
                drop(daemon);
                let _ = reader.join();
                return Err(failed(format!(
                    "no greeting within {}s",
                    CHILD_LIMIT.as_secs()
                )));
            }
        };
        let _ = reader.join();
        daemon.endpoint = line
            .trim()
            .strip_prefix("nvmx-serve listening ")
            .ok_or_else(|| failed(format!("unexpected daemon greeting `{}`", line.trim())))?
            .to_owned();
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A per-run scratch directory inside the checkout, removed on drop —
/// sockets, stores, captures and artifact dirs all live under it.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<parent>/run-<pid>-<nanos>`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(parent: &Path) -> io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = parent.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
