//! The service protocol, pinned: one golden payload per request and
//! response variant (every `ServiceError` kind included) must be what the
//! encoder writes and must decode back to its message.
//!
//! The golden file `tests/fixtures/protocol_v2_frames.txt` holds one line
//! per message: its name, a space, and its payload in lowercase hex.

use stpm_service::protocol::{decode_request, decode_response, encode_request, encode_response};
use stpm_service::{OverloadScope, Request, Response, ServiceError, ServiceStats, TenantStats};
use stpm_timeseries::{Alphabet, SymbolId, SymbolicDatabase, SymbolicSeries};

enum Message {
    Request(Request),
    Response(Response),
}

fn batch() -> SymbolicDatabase {
    let alphabet = Alphabet::from_strs(&["lo", "hi"]).unwrap();
    SymbolicDatabase::new(vec![
        SymbolicSeries::new("a".into(), vec![SymbolId(0), SymbolId(1)], alphabet.clone()),
        SymbolicSeries::new("b".into(), vec![SymbolId(1), SymbolId(1)], alphabet),
    ])
    .unwrap()
}

fn error(err: ServiceError) -> Message {
    Message::Response(Response::Error(err))
}

fn messages() -> Vec<(&'static str, Message)> {
    let tenant = || "t1".to_string();
    let stats = ServiceStats {
        tenants: vec![TenantStats {
            name: tenant(),
            resident: true,
            quarantined: false,
            granules_absorbed: 1,
            pending_granules: 2,
            patterns_interned: 3,
            io_retries: 4,
            evictions: 5,
            rehydrations: 6,
            resident_bytes: 7,
            acked_appends: 8,
            replayed_records: 9,
        }],
        resident_bytes: 10,
        budget_bytes: 11,
        acked_appends: 12,
        overloaded_rejections: 13,
        deadline_rejections: 14,
        quarantined_tenants: 15,
        evictions: 16,
        rehydrations: 17,
        io_retries: 18,
    };
    vec![
        (
            "request.append",
            Message::Request(Request::Append {
                tenant: tenant(),
                deadline_ms: 250,
                batch: batch(),
            }),
        ),
        (
            "request.checkpoint",
            Message::Request(Request::Checkpoint { tenant: tenant() }),
        ),
        (
            "request.patterns",
            Message::Request(Request::Patterns { tenant: tenant() }),
        ),
        ("request.stats", Message::Request(Request::Stats)),
        ("request.shutdown", Message::Request(Request::Shutdown)),
        (
            "response.appended",
            Message::Response(Response::Appended {
                granules: 4,
                pending_instants: 1,
                patterns: 7,
            }),
        ),
        (
            "response.checkpoint",
            Message::Response(Response::Checkpoint {
                granules: 4,
                patterns: 7,
            }),
        ),
        (
            "response.patterns",
            Message::Response(Response::Patterns {
                patterns: vec!["a:hi".into(), "a:hi -> b:hi".into()],
            }),
        ),
        ("response.stats", Message::Response(Response::Stats(stats))),
        (
            "response.shutdown_started",
            Message::Response(Response::ShutdownStarted),
        ),
        (
            "error.overloaded_tenant",
            error(ServiceError::Overloaded {
                scope: OverloadScope::Tenant,
            }),
        ),
        (
            "error.overloaded_global",
            error(ServiceError::Overloaded {
                scope: OverloadScope::Global,
            }),
        ),
        (
            "error.deadline_exceeded",
            error(ServiceError::DeadlineExceeded),
        ),
        (
            "error.quarantined",
            error(ServiceError::Quarantined {
                reason: "poisoned".into(),
            }),
        ),
        ("error.shutting_down", error(ServiceError::ShuttingDown)),
        (
            "error.bad_request",
            error(ServiceError::BadRequest {
                reason: "bad".into(),
            }),
        ),
        (
            "error.tenant",
            error(ServiceError::Tenant {
                reason: "disk".into(),
            }),
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn every_frame_matches_its_golden_bytes() {
    let messages = messages();
    let rendered: String = messages
        .iter()
        .map(|(name, message)| {
            let payload = match message {
                Message::Request(req) => encode_request(req),
                Message::Response(resp) => encode_response(resp),
            };
            format!("{name} {}\n", hex(&payload))
        })
        .collect();
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/protocol_v2_frames.txt");
    let committed = std::fs::read_to_string(&golden).unwrap_or_default();
    if committed != rendered {
        let actual = std::env::temp_dir().join("protocol_v2_frames.txt");
        std::fs::write(&actual, &rendered).unwrap();
        panic!(
            "the protocol encoder no longer reproduces {} (the new frames are in {}). A client \
             and a daemon of different builds must not misread each other: if the protocol \
             changed on purpose, bump PROTOCOL_VERSION in crates/service/src/protocol.rs and \
             replace the golden file with the new frames",
            golden.display(),
            actual.display()
        );
    }
    // Each golden payload decodes back to its message.
    for ((name, message), line) in messages.iter().zip(committed.lines()) {
        let payload = unhex(line.split_once(' ').unwrap().1);
        match message {
            Message::Request(req) => assert_eq!(&decode_request(&payload).unwrap(), req, "{name}"),
            Message::Response(resp) => {
                assert_eq!(&decode_response(&payload).unwrap(), resp, "{name}");
            }
        }
    }
}
