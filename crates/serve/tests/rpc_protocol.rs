//! Protocol-robustness proof for the RPC front door: malformed, truncated
//! and oversized frames, unknown verbs/versions, stale seal handles,
//! mid-`Infer` disconnects and graceful drain — every abuse is answered
//! with a typed error frame (never a panic, never a hang), and the books
//! still balance at shutdown.
//!
//! Every server here binds `127.0.0.1:0` and reads the assigned address
//! back — no fixed ports, so parallel CI legs cannot collide.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use mlexray_nn::{Activation, BackendSpec, GraphBuilder, Model, Padding};
use mlexray_serve::rpc::{
    wire, ErrorCode, RpcClient, RpcRequest, RpcResponse, RpcServer, RpcServerConfig,
};
use mlexray_serve::{BatchPolicy, InferenceService, ModelRegistry, MonitorPolicy, ServiceConfig};
use mlexray_tensor::{Shape, Tensor};

fn serving_model(name: &str) -> Model {
    let mut b = GraphBuilder::new(name);
    let x = b.input("x", Shape::nhwc(1, 8, 8, 3));
    let w = b.constant(
        "w",
        Tensor::from_f32(
            Shape::new(vec![4, 3, 3, 3]),
            (0..108).map(|i| (i as f32 * 0.173).sin() * 0.3).collect(),
        )
        .unwrap(),
    );
    let c = b
        .conv2d("conv", x, w, None, 2, Padding::Same, Activation::Relu)
        .unwrap();
    let m = b.mean("gap", c).unwrap();
    let s = b.softmax("softmax", m).unwrap();
    b.output(s);
    Model::checkpoint(b.finish().unwrap(), name)
}

fn frame_input(seed: usize) -> Vec<Tensor> {
    vec![Tensor::from_f32(
        Shape::nhwc(1, 8, 8, 3),
        (0..192)
            .map(|j| ((seed * 192 + j) as f32 * 0.0137).sin())
            .collect(),
    )
    .unwrap()]
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers_per_model: 1,
        batch: BatchPolicy::windowed(4, Duration::from_micros(200)),
        monitor: MonitorPolicy::off(),
        ..Default::default()
    }
}

fn start_server(config: RpcServerConfig) -> RpcServer {
    let registry = ModelRegistry::new();
    registry
        .register_model("m", serving_model("m"), BackendSpec::optimized())
        .unwrap();
    let service = InferenceService::start(&registry, service_config(), None).unwrap();
    // Port 0: the OS assigns; local_addr() reads it back.
    RpcServer::start("127.0.0.1:0", service, registry, config, None).unwrap()
}

/// Fast polling so drain/stop tests don't wait on the default intervals.
fn quick_config() -> RpcServerConfig {
    RpcServerConfig {
        poll_interval: Duration::from_millis(5),
        frame_timeout: Duration::from_millis(250),
        ..Default::default()
    }
}

fn read_error(stream: &mut TcpStream) -> (u64, ErrorCode, String) {
    let payload = wire::read_frame(stream, u32::MAX)
        .expect("frame readable")
        .expect("server replied before closing");
    let frame = wire::decode_response(&payload).expect("decodable response");
    match frame.response {
        RpcResponse::Error { code, message, .. } => (frame.id, code, message),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn bad_magic_gets_typed_error_and_close() {
    let server = start_server(quick_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A frame whose payload opens with the wrong magic.
    let garbage = [0xDEu8, 0xAD, 0x01, 0x06, 0, 0, 0, 0, 0, 0, 0, 0];
    stream
        .write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&garbage).unwrap();
    let (_, code, _) = read_error(&mut stream);
    assert_eq!(code, ErrorCode::BadMagic);
    // The server closed its side: the next read is EOF.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap(), 0);
    server.shutdown();
}

#[test]
fn unknown_verb_and_version_keep_the_connection_alive() {
    let server = start_server(quick_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Unknown verb: header is valid, kind is not — the error frame echoes
    // the correlation id and the connection survives.
    let mut payload = wire::encode_request(77, &RpcRequest::Status);
    payload[3] = 0x6F;
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    let (id, code, _) = read_error(&mut stream);
    assert_eq!(code, ErrorCode::UnknownVerb);
    assert_eq!(id, 77, "unknown-verb errors must echo the correlation id");

    // Future protocol version: typed refusal, connection still alive.
    let mut payload = wire::encode_request(78, &RpcRequest::Status);
    payload[2] = 9;
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    let (_, code, _) = read_error(&mut stream);
    assert_eq!(code, ErrorCode::UnsupportedVersion);

    // Malformed body (trailing garbage): typed refusal, still alive.
    let mut payload = wire::encode_request(79, &RpcRequest::Status);
    payload.push(0xAB);
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    let (_, code, _) = read_error(&mut stream);
    assert_eq!(code, ErrorCode::Malformed);

    // Proof of life: a valid Status on the same connection still answers.
    let payload = wire::encode_request(80, &RpcRequest::Status);
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    let reply = wire::read_frame(&mut stream, u32::MAX).unwrap().unwrap();
    let frame = wire::decode_response(&reply).unwrap();
    assert_eq!(frame.id, 80);
    assert!(matches!(frame.response, RpcResponse::Status(_)));
    server.shutdown();
}

#[test]
fn oversized_payload_announcement_is_refused() {
    let server = start_server(RpcServerConfig {
        max_frame_len: 4096,
        ..quick_config()
    });
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Announce a 1 GiB frame; the server must refuse before allocating.
    stream.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    let (_, code, _) = read_error(&mut stream);
    assert_eq!(code, ErrorCode::PayloadTooLarge);
    server.shutdown();
}

#[test]
fn truncated_frame_gets_typed_error() {
    let server = start_server(quick_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Announce 100 bytes, deliver 10, half-close. The server answers with
    // a typed Truncated frame on the still-open write side.
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[0u8; 10]).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let (_, code, _) = read_error(&mut stream);
    assert_eq!(code, ErrorCode::Truncated);
    server.shutdown();
}

#[test]
fn stall_mid_frame_times_out_as_truncated() {
    let server = start_server(quick_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Announce 100 bytes, deliver 10, then go silent (no close). The
    // frame timeout declares the connection truncated instead of leaking
    // a wedged thread forever.
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[0u8; 10]).unwrap();
    let (_, code, _) = read_error(&mut stream);
    assert_eq!(code, ErrorCode::Truncated);
    server.shutdown();
}

#[test]
fn stale_handle_after_unseal_is_typed() {
    let server = start_server(quick_config());
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    let handle = client.seal(frame_input(1)).unwrap();
    let ok = client.infer_sealed("m", handle, None).unwrap();
    assert_eq!(ok.outputs.len(), 1);
    assert_eq!(client.unseal(handle).unwrap() as usize, 192 * 4);
    // The handle is stale now: both re-infer and re-unseal must be typed
    // refusals, and the session must keep working afterwards.
    let err = client.infer_sealed("m", handle, None).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownHandle));
    let err = client.unseal(handle).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownHandle));
    let fresh = client.seal(frame_input(2)).unwrap();
    assert_ne!(fresh, handle, "handles are never reused within a session");
    assert_eq!(
        client.infer_sealed("m", fresh, None).unwrap().outputs.len(),
        1
    );
    server.shutdown();
}

#[test]
fn unknown_model_and_bad_inputs_are_typed() {
    let server = start_server(quick_config());
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    let err = client.infer("nope", frame_input(0), None).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::UnknownModel));
    // Wrong input shape: admission refuses it, the client gets the typed
    // reason, the server survives.
    let bad = vec![Tensor::from_f32(Shape::new(vec![1, 3]), vec![1.0, 2.0, 3.0]).unwrap()];
    let err = client.infer("m", bad, None).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::BadInput));
    assert_eq!(
        client
            .infer("m", frame_input(3), None)
            .unwrap()
            .outputs
            .len(),
        1
    );
    server.shutdown();
}

/// A tensor whose dimensions multiply past `usize::MAX` — `[65536; 4]`,
/// 2^64 elements — announced with no data bytes: an unchecked product
/// wraps to 0 and would accept it. It is refused as malformed, and the
/// session still answers a good `Infer` afterwards.
#[test]
fn shape_whose_element_count_overflows_is_malformed() {
    let server = start_server(quick_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let empty = Tensor::from_f32(Shape::new(vec![0; 4]), Vec::new()).unwrap();
    let infer = |tensors| RpcRequest::Infer {
        model: "m".into(),
        payload: wire::InferPayload::Tensors(tensors),
        deadline_ms: 0,
        trace: None,
    };
    let mut payload = wire::encode_request(90, &infer(vec![empty]));
    // The tensor's header: f32 tag, rank 4, four zero `u32` dims.
    let mut header = vec![0u8, 4];
    header.extend([0u8; 16]);
    let at = payload
        .windows(header.len())
        .position(|w| w == header)
        .expect("the tensor header is in the frame")
        + 2;
    for dim in payload[at..at + 16].chunks_exact_mut(4) {
        dim.copy_from_slice(&65536u32.to_le_bytes());
    }
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    let (_, code, message) = read_error(&mut stream);
    assert_eq!(code, ErrorCode::Malformed, "{message}");

    let payload = wire::encode_request(91, &infer(frame_input(0)));
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    let reply = wire::read_frame(&mut stream, u32::MAX).unwrap().unwrap();
    let frame = wire::decode_response(&reply).unwrap();
    assert_eq!(frame.id, 91);
    assert!(
        matches!(frame.response, RpcResponse::Infer(_)),
        "{:?}",
        frame.response
    );
    drop(stream);
    server.shutdown();
}

/// A graph whose tensors are `[65536; 4]` f32 — 2^64 elements, a byte
/// count no `usize` holds — uploaded over the wire: the lint gate `Load`
/// runs refuses it with a typed error instead of overflowing while it plans
/// the arena, and the session still answers a good `Infer` afterwards.
#[test]
fn load_of_a_graph_whose_byte_size_overflows_is_refused() {
    let server = start_server(quick_config());
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    let mut b = GraphBuilder::new("overflow");
    let x = b.input("x", Shape::new(vec![1, 1, 1, 1]));
    let y = b.activation("relu", x, Activation::Relu).unwrap();
    b.output(y);
    let json = serde_json::to_string(&b.finish().unwrap())
        .unwrap()
        .replace("[1,1,1,1]", "[65536,65536,65536,65536]");
    let err = client
        .load_graph_json("overflow", &json, wire::WireSpec::Reference)
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::LintRejected), "{err:?}");

    let out = client.infer("m", frame_input(0), None).unwrap();
    assert_eq!(out.outputs.len(), 1);
    drop(client);
    server.shutdown();
}

/// A graph whose input is `2^59` f32 — `2^61` bytes, a size a `usize`
/// holds but no machine does — uploaded over the wire: the lint gate has
/// nothing to deny, so the refusal comes from building the interpreter,
/// whose allocation fails as a typed error instead of aborting the server,
/// and the session still answers a good `Infer` afterwards.
#[test]
fn load_of_a_graph_no_machine_can_hold_is_refused() {
    let server = start_server(quick_config());
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    let mut b = GraphBuilder::new("huge");
    let x = b.input("x", Shape::vector(1 << 59));
    let y = b.activation("relu", x, Activation::Relu).unwrap();
    b.output(y);
    let json = serde_json::to_string(&b.finish().unwrap()).unwrap();
    let err = client
        .load_graph_json("huge", &json, wire::WireSpec::Optimized)
        .unwrap_err();
    assert_eq!(
        err.server_code(),
        Some(ErrorCode::ResourceExhausted),
        "{err:?}"
    );
    assert!(err.to_string().contains("allocator refused"), "{err}");

    let out = client.infer("m", frame_input(0), None).unwrap();
    assert_eq!(out.outputs.len(), 1);
    drop(client);
    server.shutdown();
}

/// A layer norm whose data operand is rewritten to rank 0 — no last axis to
/// normalize over — uploaded over the wire: the lint gate refuses it with a
/// typed error instead of panicking on the missing axis and taking the
/// connection down, and the session still answers a good `Infer` afterwards.
#[test]
fn load_of_a_norm_over_a_rank_zero_operand_is_refused() {
    let server = start_server(quick_config());
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    let mut b = GraphBuilder::new("rank0_norm");
    let x = b.input("x", Shape::matrix(1, 5));
    let gamma = b.constant("gamma", Tensor::filled_f32(Shape::vector(5), 1.0));
    let beta = b.constant("beta", Tensor::filled_f32(Shape::vector(5), 0.0));
    let y = b.layer_norm("ln", x, gamma, beta, 1e-3).unwrap();
    b.output(y);
    let json = serde_json::to_string(&b.finish().unwrap())
        .unwrap()
        .replace("[1,5]", "[]");
    let err = client
        .load_graph_json("rank0_norm", &json, wire::WireSpec::Reference)
        .unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::LintRejected), "{err:?}");

    let out = client.infer("m", frame_input(0), None).unwrap();
    assert_eq!(out.outputs.len(), 1);
    drop(client);
    server.shutdown();
}

#[test]
fn mid_infer_disconnect_does_not_wedge_the_server() {
    let server = start_server(quick_config());
    let addr = server.local_addr();
    {
        // Fire an Infer and vanish without reading the reply.
        let mut stream = TcpStream::connect(addr).unwrap();
        let payload = wire::encode_request(
            1,
            &RpcRequest::Infer {
                model: "m".into(),
                payload: mlexray_serve::rpc::InferPayload::Tensors(frame_input(9)),
                deadline_ms: 0,
                trace: None,
            },
        );
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(&payload).unwrap();
        drop(stream);
    }
    // The server must still serve new sessions…
    let mut client = RpcClient::connect(addr).unwrap();
    assert_eq!(
        client
            .infer("m", frame_input(10), None)
            .unwrap()
            .outputs
            .len(),
        1
    );
    drop(client);
    // …and shut down with balanced books: the abandoned request was
    // completed (or shed with a typed reason), never leaked.
    let report = server.shutdown();
    for stats in &report.serve.models {
        assert!(stats.is_balanced(), "unbalanced books: {stats:?}");
    }
}

/// Two `Infer` frames sent back to back in one `write` are two requests:
/// the server answers both, in order, with the outputs a lone request
/// gets. A reused or buffered frame reader must not drop the second.
#[test]
fn two_frames_in_one_write_are_both_answered_in_order() {
    let server = start_server(quick_config());
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    let alone: Vec<Vec<Tensor>> = [11, 12]
        .map(|seed| client.infer("m", frame_input(seed), None).unwrap().outputs)
        .into();
    drop(client);

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A dropped frame fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut both = Vec::new();
    for (id, seed) in [(21u64, 11), (22, 12)] {
        let payload = wire::encode_request(
            id,
            &RpcRequest::Infer {
                model: "m".into(),
                payload: mlexray_serve::rpc::InferPayload::Tensors(frame_input(seed)),
                deadline_ms: 0,
                trace: None,
            },
        );
        both.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        both.extend_from_slice(&payload);
    }
    stream.write_all(&both).unwrap();
    for (id, want) in [21u64, 22].into_iter().zip(&alone) {
        let reply = wire::read_frame(&mut stream, u32::MAX).unwrap().unwrap();
        let frame = wire::decode_response(&reply).unwrap();
        assert_eq!(frame.id, id, "replies come back in request order");
        match frame.response {
            RpcResponse::Infer(r) => assert_eq!(&r.outputs, want),
            other => panic!("expected an infer reply, got {other:?}"),
        }
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn authentication_gates_verbs_when_token_table_is_set() {
    let mut tokens = BTreeMap::new();
    tokens.insert("tok-edge".to_string(), "edge-lab".to_string());
    let server = start_server(RpcServerConfig {
        tokens: Some(tokens),
        ..quick_config()
    });
    let mut client = RpcClient::connect(server.local_addr()).unwrap();
    // Status is a health probe — open to unauthenticated peers.
    assert!(client.status().unwrap().ready);
    // Everything else requires Hello first.
    let err = client.seal(frame_input(0)).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Unauthenticated));
    let err = client.hello("wrong-token").unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Unauthenticated));
    assert_eq!(client.hello("tok-edge").unwrap(), "edge-lab");
    assert_eq!(
        client
            .infer("m", frame_input(1), None)
            .unwrap()
            .outputs
            .len(),
        1
    );
    server.shutdown();
}

/// The drain proof: a request already admitted before drain completes and
/// its connection receives the reply, while connections arriving during
/// the drain are refused with a typed `ShuttingDown` frame.
#[test]
fn drain_completes_in_flight_and_refuses_new_connections() {
    let registry = ModelRegistry::new();
    registry
        .register_model("m", serving_model("m"), BackendSpec::optimized())
        .unwrap();
    // start_paused: requests queue but nothing dequeues, holding the
    // in-flight request open across the drain transition.
    let service = InferenceService::start(
        &registry,
        ServiceConfig {
            start_paused: true,
            ..service_config()
        },
        None,
    )
    .unwrap();
    let server = RpcServer::start("127.0.0.1:0", service, registry, quick_config(), None).unwrap();
    let addr = server.local_addr();

    // Session A: seal, then park an Infer in the (paused) queue. The
    // status probe also connects now, *before* the drain begins.
    let mut probe = RpcClient::connect(addr).unwrap();
    assert!(probe.status().unwrap().ready);
    let mut client_a = RpcClient::connect(addr).unwrap();
    let handle = client_a.seal(frame_input(42)).unwrap();
    let in_flight = std::thread::spawn(move || client_a.infer_sealed("m", handle, None));
    // Wait until the request is actually admitted before draining.
    while server.service().queue_depth("m") != Some(1) {
        std::thread::sleep(Duration::from_millis(1));
    }

    server.begin_drain();

    // The connection opened before drain keeps working: Status still
    // answers and reports the drain; new *work* on it is refused typed.
    let status = probe.status().unwrap();
    assert!(status.draining && !status.ready);
    let err = probe.seal(frame_input(7)).unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::ShuttingDown));
    // A brand-new connection is refused at the door with a typed frame —
    // sent unprompted, so the client learns why without writing a byte.
    let mut refused = TcpStream::connect(addr).unwrap();
    let (_, code, _) = read_error(&mut refused);
    assert_eq!(code, ErrorCode::ShuttingDown);

    // Completing the shutdown releases the queued request: session A's
    // reply arrives with real outputs, not an error.
    let report = server.shutdown();
    let response = in_flight
        .join()
        .unwrap()
        .expect("in-flight infer completes");
    assert_eq!(response.outputs.len(), 1);
    assert!(report.connections_refused >= 1);
    for stats in &report.serve.models {
        assert!(stats.is_balanced(), "unbalanced books: {stats:?}");
    }
}
