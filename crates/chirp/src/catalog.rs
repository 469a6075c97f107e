//! The catalog: servers report themselves; clients discover them.
//!
//! "A collection of Chirp servers report themselves to a catalog, which
//! then publishes the set of available servers to interested parties"
//! (paper, Section 4). One TCP endpoint, two verbs:
//!
//! ```text
//! register <addr> <name>   -> ok
//! list                     -> ok <count>, then one "<addr> <name> <seq>" line each
//! ```

use crate::codec::{self, decode_word, encode_word};
use idbox_types::{Errno, SysResult};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One advertised server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Where to connect.
    pub addr: String,
    /// Human-readable server name.
    pub name: String,
    /// Registration sequence number (monotonic; a liveness proxy).
    pub seq: u64,
}

/// Read/write timeout on every accepted catalog connection. The
/// catalog serves one request at a time, so a client that connects and
/// stays silent holds it for at most this long.
const SERVE_TIMEOUT: Duration = Duration::from_secs(1);

/// Read/write timeout on the `register`/`list` client sockets: long
/// enough to outlast one silent client queued ahead of the request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Default)]
struct CatalogState {
    servers: BTreeMap<String, ServerInfo>,
    seq: u64,
}

/// A running catalog server.
pub struct Catalog {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl Catalog {
    /// Bind and serve on a background thread.
    pub fn spawn() -> std::io::Result<Catalog> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let state = Arc::new(Mutex::new(CatalogState::default()));
        let join = std::thread::spawn(move || loop {
            let accepted = listener.accept();
            // Drop wakes this blocking `accept` with a self-connect
            // after setting `stop`.
            if stop2.load(Ordering::Relaxed) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let _ = handle(stream, &state);
                }
                Err(_) => break,
            }
        });
        Ok(Catalog {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The catalog's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Catalog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // A thread the self-connect cannot reach is left detached
        // rather than joined, so drop cannot hang.
        let woke = TcpStream::connect(self.addr).is_ok();
        if let Some(j) = self.join.take() {
            if woke {
                let _ = j.join();
            }
        }
    }
}

fn handle(stream: TcpStream, state: &Mutex<CatalogState>) -> SysResult<()> {
    set_timeouts(&stream, SERVE_TIMEOUT)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|_| Errno::EIO)?);
    let mut writer = stream;
    let line = codec::read_line(&mut reader)?;
    let words: Vec<&str> = line.split(' ').filter(|w| !w.is_empty()).collect();
    match words.as_slice() {
        ["register", addr, name] => {
            let mut s = state.lock();
            s.seq += 1;
            let info = ServerInfo {
                addr: decode_word(addr)?,
                name: decode_word(name)?,
                seq: s.seq,
            };
            s.servers.insert(info.addr.clone(), info);
            codec::write_line(&mut writer, "ok")
        }
        ["list"] => {
            let entries: Vec<ServerInfo> = {
                let s = state.lock();
                s.servers.values().cloned().collect()
            };
            codec::write_line(&mut writer, &format!("ok {}", entries.len()))?;
            for e in entries {
                codec::write_line(
                    &mut writer,
                    &format!("{} {} {}", encode_word(&e.addr), encode_word(&e.name), e.seq),
                )?;
            }
            Ok(())
        }
        _ => codec::write_line(&mut writer, &codec::error_line(Errno::EPROTO)),
    }
}

/// Bound both directions of `stream` (the clone used for reading
/// shares the socket, so it inherits them).
fn set_timeouts(stream: &TcpStream, timeout: Duration) -> SysResult<()> {
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|_| stream.set_write_timeout(Some(timeout)))
        .map_err(|_| Errno::EIO)
}

/// Connect a client socket to the catalog.
fn connect(catalog: SocketAddr) -> SysResult<TcpStream> {
    let stream = TcpStream::connect(catalog).map_err(|_| Errno::ECONNREFUSED)?;
    set_timeouts(&stream, CLIENT_TIMEOUT)?;
    Ok(stream)
}

/// Report a server to a catalog.
pub fn register(catalog: SocketAddr, server_addr: &str, name: &str) -> SysResult<()> {
    let stream = connect(catalog)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|_| Errno::EIO)?);
    let mut writer = stream;
    codec::write_line(
        &mut writer,
        &format!("register {} {}", encode_word(server_addr), encode_word(name)),
    )?;
    codec::parse_response(&codec::read_line(&mut reader)?)?;
    Ok(())
}

/// Fetch the advertised server list.
pub fn list(catalog: SocketAddr) -> SysResult<Vec<ServerInfo>> {
    let stream = connect(catalog)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|_| Errno::EIO)?);
    let mut writer = stream;
    codec::write_line(&mut writer, "list")?;
    let words = codec::parse_response(&codec::read_line(&mut reader)?)?;
    let count: usize = words
        .first()
        .and_then(|w| w.parse().ok())
        .ok_or(Errno::EPROTO)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let line = codec::read_line(&mut reader)?;
        let ws: Vec<&str> = line.split(' ').filter(|w| !w.is_empty()).collect();
        let [addr, name, seq] = ws.as_slice() else {
            return Err(Errno::EPROTO);
        };
        out.push(ServerInfo {
            addr: decode_word(addr)?,
            name: decode_word(name)?,
            seq: seq.parse().map_err(|_| Errno::EPROTO)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_list() {
        let cat = Catalog::spawn().unwrap();
        assert_eq!(list(cat.addr()).unwrap(), vec![]);
        register(cat.addr(), "127.0.0.1:9094", "storage.alpha").unwrap();
        register(cat.addr(), "127.0.0.1:9095", "storage beta").unwrap();
        let servers = list(cat.addr()).unwrap();
        assert_eq!(servers.len(), 2);
        assert!(servers.iter().any(|s| s.name == "storage beta"));
    }

    #[test]
    fn reregistration_updates_seq() {
        let cat = Catalog::spawn().unwrap();
        register(cat.addr(), "127.0.0.1:9094", "a").unwrap();
        let first = list(cat.addr()).unwrap()[0].seq;
        register(cat.addr(), "127.0.0.1:9094", "a").unwrap();
        let second = list(cat.addr()).unwrap()[0].seq;
        assert!(second > first);
        assert_eq!(list(cat.addr()).unwrap().len(), 1);
    }
}
