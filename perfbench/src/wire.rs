//! The measured system as a separate process: building the release
//! `sqo` binary, spawning `sqo serve`, talking JSON lines to it over
//! loopback, and reading its peak RSS before shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single wire operation may take before the run fails.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds the release `sqo` binary from the repository at `root` and
/// returns its path (cargo's own artifact report names it, so any
/// `CARGO_TARGET_DIR` is honoured).
pub fn build_sqo(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "sqo",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build of sqo failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        let Ok(msg) = sqo_service::json::parse(line) else {
            continue;
        };
        let is_sqo = msg
            .get("target")
            .and_then(|t| t.get("name"))
            .and_then(|n| n.as_str())
            == Some("sqo");
        if let (true, Some(exe)) = (is_sqo, msg.get("executable").and_then(|e| e.as_str())) {
            return Ok(root.join(exe));
        }
    }
    Err("cargo did not report the sqo executable".into())
}

/// A running `sqo serve` process.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `sqo serve <args> --addr 127.0.0.1:0` with the extra
    /// environment `env` and waits for its `{"listening":...}` line.
    /// Server diagnostics go to `log`.
    pub fn spawn(
        sqo: &Path,
        args: &[String],
        env: &[(&str, &str)],
        log: &Path,
    ) -> Result<ServerProc, String> {
        let log_file = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let mut child = Command::new(sqo)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .envs(env.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", sqo.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read
            .ok()
            .and_then(|_| sqo_service::json::parse(line.trim()).ok())
            .and_then(|j| {
                j.get("listening")
                    .and_then(|a| a.as_str())
                    .map(str::to_string)
            })
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match addr {
            Some(addr) => Ok(ServerProc { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                let log_text = std::fs::read_to_string(log).unwrap_or_default();
                Err(format!(
                    "sqo serve did not report its address (got {line:?}); log: {log_text}"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`) of the server, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Asks the server to shut down and waits for the process to end,
    /// killing it if it does not exit within a few seconds.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr)
            .and_then(|mut c| c.request(r#"{"op":"shutdown"}"#).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return asked,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One closed-loop JSON-lines connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    line: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
            line: Vec::with_capacity(1 << 12),
        })
    }

    /// Sends one request line and returns the response line and the
    /// client-observed latency (write start to full line read).
    pub fn request(&mut self, req: &str) -> Result<(String, Duration), String> {
        self.line.clear();
        self.line.extend_from_slice(req.as_bytes());
        self.line.push(b'\n');
        let started = Instant::now();
        self.stream
            .write_all(&self.line)
            .map_err(|e| format!("write: {e}"))?;
        let mut chunk = [0u8; 1 << 16];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let elapsed = started.elapsed();
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..pos]).into_owned();
                return Ok((text, elapsed));
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}
