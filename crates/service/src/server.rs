//! The TCP front end: a length-prefixed frame protocol (see
//! [`crate::protocol`]) over `std::net`, one handler thread per
//! connection, all requests funneled into the shared [`Service`].
//!
//! The listener thread polls a nonblocking accept loop so a shutdown
//! request (in-band `OP_SHUTDOWN` or [`ServerHandle::shutdown`]) can stop
//! it promptly. On stop it shuts the read half of every open connection,
//! so handlers exit once the request they are serving (if any) has been
//! answered, even when their client stays connected and idle.

use crate::protocol::{self, Request, Response, ServiceError};
use crate::service::{DrainReport, Service};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running TCP server wrapping a [`Service`].
///
/// Dropping the handle without calling [`ServerHandle::drain`] performs a
/// hard stop (workers abandoned), mirroring [`Service`]'s drop behavior.
pub struct ServerHandle {
    service: Arc<Service>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// `service` until shut down.
///
/// # Errors
/// Binding or configuring the listener socket.
pub fn serve(service: Service, addr: &str) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let service = Arc::new(service);
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("stpm-accept".to_string())
            .spawn(move || accept_loop(&listener, &service, &stop))
            .expect("spawning the accept thread")
    };
    Ok(ServerHandle {
        service,
        addr: local,
        stop,
        accept_thread: Some(accept_thread),
    })
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until an in-band shutdown request (or an earlier
    /// [`ServerHandle::shutdown`]) stops the accept loop, then drains the
    /// service gracefully: queued work finishes and every tenant is
    /// flushed to a durable snapshot before this returns.
    #[must_use]
    pub fn run_to_completion(mut self) -> DrainReport {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.drain()
    }

    /// Stops accepting connections, then drains the service gracefully:
    /// queued work finishes and every tenant is flushed to a durable
    /// snapshot before this returns.
    #[must_use]
    pub fn drain(mut self) -> DrainReport {
        self.shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let mut service = Arc::clone(&self.service);
        drop(self); // release our own Arc before unwrapping
                    // Lingering connection handlers each hold an Arc for a moment
                    // after the accept loop joined them; wait those clones out.
        for _ in 0..500 {
            match Arc::try_unwrap(service) {
                Ok(service) => return service.drain(),
                Err(still_shared) => {
                    still_shared.begin_shutdown();
                    service = still_shared;
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        // Give up after ~5s: the service keeps rejecting new work and its
        // WAL already holds every acknowledged append, so nothing is lost;
        // only the final snapshot flush is skipped.
        DrainReport::default()
    }

    /// Signals the accept loop to stop and the service to reject new work.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.service.begin_shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, stop: &Arc<AtomicBool>) {
    // Every live connection: its handler thread plus a handle on its socket,
    // so a stop can end reads the handler is blocked in.
    let mut connections: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // A connection the loop cannot track could block the drain
                // forever; refuse it (dropping the stream closes it).
                let Ok(tracked) = stream.try_clone() else {
                    continue;
                };
                let service = Arc::clone(service);
                let stop = Arc::clone(stop);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("stpm-conn".to_string())
                    .spawn(move || {
                        let _ = handle_connection(stream, &service, &stop);
                    })
                {
                    connections.push((handle, tracked));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
        connections.retain(|(handle, _)| !handle.is_finished());
    }
    // Shut the read half of every connection: a handler blocked waiting for
    // the next frame of an idle client sees EOF and returns, while one
    // serving a request still writes its response on the open write half.
    for (_, stream) in &connections {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (handle, _) in connections {
        let _ = handle.join();
    }
}

/// Serves one connection: read frame → decode → service → encode → write
/// frame, until EOF, a protocol error, or shutdown.
fn handle_connection(stream: TcpStream, service: &Service, stop: &AtomicBool) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let Some(frame) = protocol::read_frame(&mut reader)? else {
            return Ok(()); // clean EOF
        };
        let response = match protocol::decode_request(&frame) {
            Ok(request) => {
                let is_shutdown = matches!(request, Request::Shutdown);
                let response = service.call(request);
                if is_shutdown {
                    stop.store(true, Ordering::Release);
                }
                response
            }
            Err(e) => Response::Error(ServiceError::BadRequest {
                reason: e.to_string(),
            }),
        };
        protocol::write_frame(&mut writer, &protocol::encode_response(&response))?;
        writer.flush()?;
    }
}
