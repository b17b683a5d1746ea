//! A reply frame announces its own length, and the client accepts any
//! length up to `u32::MAX` (model outputs are unbounded). A broken or
//! hostile server that announces 4 GiB, sends a few bytes and hangs up must
//! cost the client a few bytes and a typed `Truncated` — not a 4 GiB
//! allocation. A `#[global_allocator]` records the largest single
//! allocation or reallocation the process asks for while the client reads.
//!
//! One `#[test]` in a file of its own, so no other test's allocations are
//! recorded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};

use mlexray_serve::rpc::wire::{self, RpcRequest, WireError};
use mlexray_serve::rpc::{ClientError, RpcClient};

struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the high-water mark is a side effect only.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

#[test]
fn an_over_announced_reply_is_truncated_without_a_large_allocation() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Take the request in, then answer with a 4 GiB announcement, six
        // bytes of it, and a hang-up.
        wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .expect("one request frame");
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        stream.write_all(b"\x01\x02\x03\x04\x05\x06").unwrap();
    });
    let mut client = RpcClient::connect(addr).unwrap();
    LARGEST.store(0, Ordering::Relaxed);
    let result = client.roundtrip(&RpcRequest::Status);
    let largest = LARGEST.load(Ordering::Relaxed);
    server.join().unwrap();
    assert!(
        matches!(result, Err(ClientError::Wire(WireError::Truncated))),
        "{result:?}"
    );
    assert!(
        largest <= 1 << 20,
        "reading a lying reply asked the allocator for {largest} bytes at once"
    );
}
