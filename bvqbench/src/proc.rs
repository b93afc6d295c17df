//! The server under test as a child process, and the line-delimited JSON
//! connections the load generator drives it through.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A running `bvq serve` process. Dropping it kills the process and waits
/// for it, so no server outlives the benchmark.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The address the server bound.
    pub addr: String,
}

impl ServerProc {
    /// Spawns `bvq serve` on an ephemeral loopback port and waits until it
    /// reports its address. `--admission` lints every compute request.
    pub fn spawn(bvq: &Path, admission: bool) -> io::Result<ServerProc> {
        let mut cmd = Command::new(bvq);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if admission {
            cmd.arg("--admission");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = ServerProc {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if proc.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("server exited before listening"));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                proc.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                return Ok(proc);
            }
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The process's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Asks the server to shut down and waits for the process to end,
    /// killing it if it has not ended within ten seconds.
    pub fn shutdown(mut self) -> io::Result<()> {
        if let Ok(mut conn) = Conn::connect(&self.addr) {
            let _ = conn.send(r#"{"op":"shutdown"}"#);
            let _ = conn.recv();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("server did not stop within 10 s"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Kernel clock ticks per second, the unit of `/proc` CPU times.
fn clock_ticks() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// User plus system CPU time process `pid` has used, in milliseconds,
/// from `/proc/<pid>/stat`.
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok((ticks(11)? + ticks(12)?) * 1000.0 / clock_ticks())
}

/// `(steal, total)` CPU time of the whole host, in clock ticks, from the
/// `cpu` line of `/proc/stat`.
pub fn host_ticks() -> io::Result<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = *fields
        .get(7)
        .ok_or_else(|| io::Error::other("no steal field in /proc/stat"))?;
    Ok((steal, fields.iter().sum()))
}

/// One client connection speaking line-delimited JSON.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Receives one line, without its newline.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if line.ends_with('\n') {
            line.pop();
        }
        Ok(line)
    }

    /// Sets the read timeout (`None` blocks).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(t)
    }
}

/// Whether a response line reports success. Responses begin
/// `{"id":…,"ok":…`, so only the head of the line is searched.
pub fn is_ok(line: &str) -> bool {
    clip(line).contains("\"ok\":true")
}

/// Whether a response was served from the result cache.
pub fn is_cached(line: &str) -> bool {
    clip(line).contains("\"cached\":true")
}

/// Whether a header line opens a streamed answer. The flag follows the
/// certificate, if any, so the whole line is searched.
pub fn is_stream_header(line: &str) -> bool {
    line.contains("\"stream\":true")
}

/// At most the first 200 bytes of a line, cut at a character boundary:
/// where a response's status fields are, and enough for a message.
pub fn clip(line: &str) -> &str {
    let mut end = line.len().min(200);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}
