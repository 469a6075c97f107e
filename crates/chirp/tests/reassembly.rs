//! Frame reassembly over a raw `TcpStream`: the server's reader stops
//! at the first short read and relies on level-triggered `poll` to come
//! back for the rest, so a frame split across many segments, a payload
//! that trails its command line, and a pipelined burst bigger than one
//! read must all reassemble into the same replies a serial client gets.
//!
//! Each case runs one transcript twice, against two identical servers:
//! once serially (every frame in one write, one frame in flight), once
//! with the case's hostile segmentation. Every reply head and payload
//! must match.

use idbox_acl::{Acl, Rights};
use idbox_auth::{
    authenticate_client, AuthTransport, CertificateAuthority, ClientCredential, ServerVerifier,
};
use idbox_chirp::{codec, ChirpServer, ChirpServerHandle, ServerConfig};
use idbox_types::AuthMethod;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn creds_and_verifier() -> (Vec<ClientCredential>, ServerVerifier) {
    let ca = CertificateAuthority::new("/O=UnivNowhere CA", 0xCA11AB1E);
    let mut v = ServerVerifier::new();
    v.accept = vec![AuthMethod::Globus];
    v.cas.trust(ca.clone());
    (
        vec![ClientCredential::Globus(ca.issue("/O=UnivNowhere/CN=Fred"))],
        v,
    )
}

fn spawn(name: &str, verifier: ServerVerifier) -> ChirpServerHandle {
    let mut acl = Acl::empty();
    acl.set_reserve("globus:/O=UnivNowhere/*", Rights::LIST, Rights::RWLAX);
    ChirpServer::new(ServerConfig {
        name: name.to_string(),
        verifier,
        root_acl: acl,
        ..Default::default()
    })
    .unwrap()
    .spawn()
    .unwrap()
}

/// One request of a transcript: its command line, its payload, and
/// whether an `ok` reply announces a payload.
struct Op {
    line: String,
    payload: Vec<u8>,
    wants_payload: bool,
}

fn op(line: &str) -> Op {
    let verb = line.split(' ').next().unwrap();
    Op {
        line: line.to_string(),
        payload: Vec::new(),
        wants_payload: matches!(verb, "get" | "readdir" | "getacl"),
    }
}

fn put(path: &str, data: Vec<u8>) -> Op {
    Op {
        line: format!("put {path} {} 420", data.len()),
        payload: data,
        wants_payload: false,
    }
}

/// A reply head (request id stripped) and its payload, if any.
type Reply = (String, Option<Vec<u8>>);

struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

struct RawTransport<'a>(&'a mut Raw);

impl AuthTransport for RawTransport<'_> {
    fn send_line(&mut self, line: &str) -> Result<(), String> {
        codec::write_line(&mut self.0.writer, line).map_err(|e| format!("{e:?}"))
    }

    fn recv_line(&mut self) -> Result<String, String> {
        codec::read_line(&mut self.0.reader).map_err(|e| format!("{e:?}"))
    }
}

impl Raw {
    fn connect(handle: &ChirpServerHandle, creds: &[ClientCredential]) -> Raw {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Raw {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        authenticate_client(&mut RawTransport(&mut raw), creds).unwrap();
        raw
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
    }

    /// Read `op`'s reply, which must carry the request id `id`.
    fn read_reply(&mut self, op: &Op, id: Option<u64>) -> Reply {
        let raw = codec::read_line(&mut self.reader).unwrap();
        let (head, got) = codec::strip_id(&raw);
        assert_eq!(got, id, "reply {raw:?} to {:?}", op.line);
        let head = head.to_string();
        let payload = (op.wants_payload && head.starts_with("ok")).then(|| {
            let len = head.split(' ').nth(1).and_then(|w| w.parse().ok()).unwrap();
            codec::read_payload(&mut self.reader, len).unwrap()
        });
        (head, payload)
    }
}

/// One frame's bytes, optionally stamped with a pipelining id.
fn frame(op: &Op, id: Option<u64>) -> Vec<u8> {
    let line = match id {
        Some(n) => codec::with_id(&op.line, n),
        None => op.line.clone(),
    };
    let mut bytes = line.into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(&op.payload);
    bytes
}

/// The reference: every frame in one write, one frame in flight.
fn serial(ops: &[Op]) -> Vec<Reply> {
    let (creds, verifier) = creds_and_verifier();
    let handle = spawn("serial", verifier);
    let mut c = Raw::connect(&handle, &creds);
    let replies = ops
        .iter()
        .map(|op| {
            c.send(&frame(op, None));
            c.read_reply(op, None)
        })
        .collect();
    handle.shutdown();
    replies
}

/// Run `ops` against a fresh twin server, sending each with `send`
/// and reading its reply before the next.
fn one_at_a_time(ops: &[Op], mut send: impl FnMut(&mut Raw, &Op)) -> Vec<Reply> {
    let (creds, verifier) = creds_and_verifier();
    let handle = spawn("segmented", verifier);
    let mut c = Raw::connect(&handle, &creds);
    let replies = ops
        .iter()
        .map(|op| {
            send(&mut c, op);
            c.read_reply(op, None)
        })
        .collect();
    handle.shutdown();
    replies
}

fn mixed_transcript() -> Vec<Op> {
    vec![
        op("mkdir /r 493"),
        put("/r/a", b"hello".to_vec()),
        op("stat /r/a"),
        op("get /r/a"),
        op("readdir /r"),
        op("getacl /r"),
        op("unlink /r/missing"),
        op("whoami"),
    ]
}

#[test]
fn command_line_sent_one_byte_per_write() {
    let ops = mixed_transcript();
    let got = one_at_a_time(&ops, |c, op| {
        for b in frame(op, None) {
            c.send(&[b]);
            std::thread::sleep(Duration::from_micros(200));
        }
    });
    let want = serial(&ops);
    assert_eq!(want[3].1.as_deref(), Some(&b"hello"[..]));
    assert_eq!(got, want);
}

#[test]
fn put_payload_arrives_after_its_line() {
    let data: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
    let ops = vec![
        op("mkdir /r 493"),
        put("/r/a", data.clone()),
        op("get /r/a"),
        put("/r/b", data.clone()),
        op("get /r/b"),
        put("/r/c", b"tail".to_vec()),
        op("get /r/c"),
        op("stat /r/c"),
    ];
    // How much of each successive put's payload rides in the line's
    // segment: none (the line alone is a complete segment, and the
    // server must park the frame), then a third (the server must keep
    // the partial payload across reads), then none again.
    let mut riding = [0, 1000, 0].into_iter();
    let got = one_at_a_time(&ops, |c, op| {
        if op.payload.is_empty() {
            c.send(&frame(op, None));
            return;
        }
        let (with_line, rest) = op.payload.split_at(riding.next().unwrap());
        let mut first = format!("{}\n", op.line).into_bytes();
        first.extend_from_slice(with_line);
        c.send(&first);
        for part in rest.chunks(rest.len().div_ceil(2)) {
            std::thread::sleep(Duration::from_millis(20));
            c.send(part);
        }
    });
    let want = serial(&ops);
    assert_eq!(want[2].1.as_deref(), Some(&data[..]));
    assert_eq!(got, want);
}

#[test]
fn pipelined_burst_larger_than_one_read() {
    let mut ops = vec![op("mkdir /r 493")];
    for i in 0..96u8 {
        let path = format!("/r/f{}", i % 8);
        ops.push(put(&path, vec![b'a' + i % 26; 700]));
        ops.push(op(&format!("get {path}")));
        ops.push(op(&format!("stat {path}")));
    }
    let mut burst = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        burst.extend_from_slice(&frame(op, Some(i as u64 + 1)));
    }
    assert!(burst.len() > 60_000, "burst is {} bytes", burst.len());

    let (creds, verifier) = creds_and_verifier();
    let handle = spawn("burst", verifier);
    let mut c = Raw::connect(&handle, &creds);
    // Pieces that end mid-frame, each larger than one read: the server
    // must carry a partial frame from the end of its window across
    // reads, sliding it to the front to make room.
    c.send(&burst[..20_000]);
    std::thread::sleep(Duration::from_millis(20));
    c.send(&burst[20_000..45_000]);
    std::thread::sleep(Duration::from_millis(20));
    c.send(&burst[45_000..]);
    let got: Vec<Reply> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| c.read_reply(op, Some(i as u64 + 1)))
        .collect();
    handle.shutdown();
    assert_eq!(got, serial(&ops));
}
