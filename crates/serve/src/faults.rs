//! Fault injection for the cluster runtime tests: a TCP proxy that sits
//! between a router and one catalog node and misbehaves on command.
//!
//! [`FaultProxy`] forwards bytes both ways like a transparent L4 proxy, but
//! its [`FaultMode`] — switchable at runtime through a shared handle — lets a
//! test turn the link pathological without touching the node process:
//!
//! * [`Passthrough`](FaultMode::Passthrough) — honest byte forwarding.
//! * [`StallForever`](FaultMode::StallForever) — accept, then forward
//!   nothing: the classic hung peer that only deadlines can unblock.
//! * [`StallThenResume`](FaultMode::StallThenResume) — hold every byte for a
//!   fixed pause, then behave; models GC pauses and network brownouts.
//! * [`DropAfter`](FaultMode::DropAfter) — forward N upstream bytes, then
//!   sever the connection mid-stream: a half-written response.
//! * [`Garbage`](FaultMode::Garbage) — answer protocol-shaped requests with
//!   bytes that are not the protocol at all.
//! * [`Reset`](FaultMode::Reset) — close every accepted connection
//!   immediately (the portable stand-in for a TCP RST: an abrupt EOF the
//!   instant the peer speaks).
//!
//! The proxy is deliberately thread-per-connection and `std`-only, like the
//! rest of the serving stack.  `tests/chaos_loopback.rs` drives a routed
//! cluster through every mode and asserts answers stay byte-identical to a
//! healthy single node; `examples/fault_proxy.rs` exposes the same modes as
//! a process for shell-driven CI smoke tests.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How the proxy treats connections, switchable at runtime via
/// [`FaultHandle::set_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Forward bytes both ways, unmodified.
    Passthrough,
    /// Accept and then forward nothing in either direction, forever.
    StallForever,
    /// Forward nothing for the pause, then forward normally.
    StallThenResume(Duration),
    /// Forward this many node→client bytes, then sever the connection.
    DropAfter(usize),
    /// Discard the client's bytes and answer with non-protocol garbage.
    Garbage,
    /// Close every accepted connection immediately (abrupt EOF — the
    /// portable stand-in for a TCP RST; `SO_LINGER(0)` is not stable Rust).
    Reset,
}

impl FaultMode {
    /// Parses the `examples/fault_proxy.rs` command-line spelling:
    /// `passthrough`, `stall`, `stall-then-resume:<ms>`, `drop-after:<n>`,
    /// `garbage`, `reset`.
    #[must_use]
    pub fn parse(text: &str) -> Option<FaultMode> {
        if let Some(ms) = text.strip_prefix("stall-then-resume:") {
            return ms
                .parse()
                .ok()
                .map(|ms: u64| FaultMode::StallThenResume(Duration::from_millis(ms)));
        }
        if let Some(n) = text.strip_prefix("drop-after:") {
            return n.parse().ok().map(FaultMode::DropAfter);
        }
        match text {
            "passthrough" => Some(FaultMode::Passthrough),
            "stall" => Some(FaultMode::StallForever),
            "garbage" => Some(FaultMode::Garbage),
            "reset" => Some(FaultMode::Reset),
            _ => None,
        }
    }
}

/// Shared control surface of a running [`FaultProxy`].
#[derive(Debug, Clone)]
pub struct FaultHandle {
    mode: Arc<Mutex<FaultMode>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl FaultHandle {
    /// Switches the fault mode and severs every open connection, so all
    /// traffic from now on sees the new mode: a client's pooled keep-alive
    /// connections break, and the client reconnects into the fault.
    pub fn set_mode(&self, mode: FaultMode) {
        *self.mode.lock().expect("fault mode lock") = mode;
        for stream in self.conns.lock().expect("conns lock").drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// The currently configured mode.
    #[must_use]
    pub fn mode(&self) -> FaultMode {
        *self.mode.lock().expect("fault mode lock")
    }
}

/// A running fault-injection proxy: listens on a local port and forwards (or
/// sabotages) connections to one upstream address.
pub struct FaultProxy {
    addr: SocketAddr,
    handle: FaultHandle,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl FaultProxy {
    /// Binds an ephemeral local port proxying to `upstream`, starting in
    /// `mode`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(upstream: impl Into<String>, mode: FaultMode) -> io::Result<FaultProxy> {
        FaultProxy::bind(
            "127.0.0.1:0".parse().expect("loopback addr"),
            upstream,
            mode,
        )
    }

    /// Binds `addr` proxying to `upstream`, starting in `mode`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: SocketAddr,
        upstream: impl Into<String>,
        mode: FaultMode,
    ) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let upstream = upstream.into();
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let handle = FaultHandle {
            mode: Arc::new(Mutex::new(mode)),
            conns: Arc::clone(&conns),
        };
        let stop = Arc::new(AtomicBool::new(false));
        let threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let threads = Arc::clone(&threads);
            thread::Builder::new()
                .name("fault-accept".to_string())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = stream else { continue };
                        if let Ok(clone) = client.try_clone() {
                            conns.lock().expect("conns lock").push(clone);
                        }
                        let mode = handle.mode();
                        let upstream = upstream.clone();
                        let stop = Arc::clone(&stop);
                        let conns_for_thread = Arc::clone(&conns);
                        let worker = thread::Builder::new()
                            .name("fault-conn".to_string())
                            .spawn(move || {
                                serve_faulty(client, &upstream, mode, &stop, &conns_for_thread);
                            })
                            .expect("spawn fault connection thread");
                        threads.lock().expect("threads lock").push(worker);
                    }
                })?
        };
        Ok(FaultProxy {
            addr,
            handle,
            stop,
            accept: Some(accept),
            conns,
            threads,
        })
    }

    /// The proxy's listening address (`host:port` as a string, ready for a
    /// [`NodeSpec`](crate::router::NodeSpec)).
    #[must_use]
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// The runtime mode switch.
    #[must_use]
    pub fn handle(&self) -> FaultHandle {
        self.handle.clone()
    }

    /// Stops accepting, severs every connection (stalled ones included), and
    /// joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for stream in self.conns.lock().expect("conns lock").drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let workers: Vec<_> = self
            .threads
            .lock()
            .expect("threads lock")
            .drain(..)
            .collect();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// Runs one accepted client connection under `mode`.
fn serve_faulty(
    client: TcpStream,
    upstream: &str,
    mode: FaultMode,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<TcpStream>>>,
) {
    match mode {
        FaultMode::Reset => {
            // Abrupt close before the peer can exchange a byte.
            let _ = client.shutdown(Shutdown::Both);
        }
        FaultMode::StallForever => {
            // Hold the socket open but never move a byte; a 50 ms poll keeps
            // shutdown responsive without a platform-specific wakeup.
            let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
            let mut sink = [0u8; 4096];
            let mut client = client;
            while !stop.load(Ordering::SeqCst) {
                match client.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
        }
        FaultMode::Garbage => {
            // Answer anything the client sends with bytes that are not the
            // protocol (not even UTF-8), then close.
            let mut buf = [0u8; 4096];
            let mut client = client;
            let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
            loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                match client.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => {
                        if client
                            .write_all(&[0xff, 0xfe, 0x00, 0x13, 0x37, b'\n'])
                            .is_err()
                        {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
            let _ = client.shutdown(Shutdown::Both);
        }
        FaultMode::Passthrough => {
            forward(client, upstream, stop, conns, Duration::ZERO, usize::MAX)
        }
        FaultMode::StallThenResume(pause) => {
            forward(client, upstream, stop, conns, pause, usize::MAX)
        }
        FaultMode::DropAfter(limit) => {
            forward(client, upstream, stop, conns, Duration::ZERO, limit)
        }
    }
}

/// Transparent forwarding with an optional initial stall and an upstream→client
/// byte budget; the connection is severed once the budget is spent.
fn forward(
    client: TcpStream,
    upstream: &str,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<TcpStream>>>,
    pause: Duration,
    mut downstream_budget: usize,
) {
    if !pause.is_zero() {
        // One bounded sleep, not a busy loop: resume (or bail on shutdown).
        let slept = Instant::now();
        while slept.elapsed() < pause {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(10).min(pause));
        }
    }
    let Ok(node) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    if let Ok(clone) = node.try_clone() {
        conns.lock().expect("conns lock").push(clone);
    }
    let (Ok(mut client_read), Ok(mut node_read)) = (client.try_clone(), node.try_clone()) else {
        return;
    };
    let mut client_write = client;
    let mut node_write = node;
    // Client → node: plain pump on its own thread.
    let up_stop = Arc::clone(stop);
    let up = thread::Builder::new()
        .name("fault-up".to_string())
        .spawn(move || {
            let mut buf = [0u8; 16 * 1024];
            let _ = client_read.set_read_timeout(Some(Duration::from_millis(50)));
            loop {
                if up_stop.load(Ordering::SeqCst) {
                    break;
                }
                match client_read.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => {
                        if node_write.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
            let _ = node_write.shutdown(Shutdown::Write);
        })
        .expect("spawn fault upstream pump");
    // Node → client: budgeted pump inline.
    let mut buf = [0u8; 16 * 1024];
    let _ = node_read.set_read_timeout(Some(Duration::from_millis(50)));
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match node_read.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let granted = n.min(downstream_budget);
                if granted > 0 && client_write.write_all(&buf[..granted]).is_err() {
                    break;
                }
                downstream_budget -= granted;
                if downstream_budget == 0 {
                    // Budget spent: sever both directions mid-stream.
                    let _ = client_write.shutdown(Shutdown::Both);
                    let _ = node_read.shutdown(Shutdown::Both);
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    let _ = client_write.shutdown(Shutdown::Both);
    let _ = up.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_modes_parse_their_cli_spellings() {
        assert_eq!(
            FaultMode::parse("passthrough"),
            Some(FaultMode::Passthrough)
        );
        assert_eq!(FaultMode::parse("stall"), Some(FaultMode::StallForever));
        assert_eq!(
            FaultMode::parse("stall-then-resume:250"),
            Some(FaultMode::StallThenResume(Duration::from_millis(250)))
        );
        assert_eq!(
            FaultMode::parse("drop-after:17"),
            Some(FaultMode::DropAfter(17))
        );
        assert_eq!(FaultMode::parse("garbage"), Some(FaultMode::Garbage));
        assert_eq!(FaultMode::parse("reset"), Some(FaultMode::Reset));
        assert_eq!(FaultMode::parse("nonsense"), None);
        assert_eq!(FaultMode::parse("drop-after:x"), None);
    }

    #[test]
    fn passthrough_proxies_bytes_and_reset_closes_immediately() {
        // A tiny echo upstream.
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("addr").to_string();
        let echo = thread::spawn(move || {
            if let Ok((mut conn, _)) = upstream.accept() {
                let mut buf = [0u8; 64];
                if let Ok(n) = conn.read(&mut buf) {
                    let _ = conn.write_all(&buf[..n]);
                }
            }
        });
        let proxy = FaultProxy::start(upstream_addr, FaultMode::Passthrough).expect("proxy");
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        client.write_all(b"ping\n").expect("write");
        let mut reply = [0u8; 5];
        client.read_exact(&mut reply).expect("read");
        assert_eq!(&reply, b"ping\n");
        echo.join().expect("echo thread");

        proxy.handle().set_mode(FaultMode::Reset);
        let mut client = TcpStream::connect(proxy.addr()).expect("connect");
        let mut buf = [0u8; 1];
        // An immediate EOF (or a reset error) — never a successful byte.
        match client.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("reset proxy delivered {n} bytes"),
        }
        proxy.shutdown();
    }
}
