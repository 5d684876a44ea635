//! A serve chunk whose header lies about its shape, or whose width bytes
//! name no width, is refused before the decoder allocates anything: the
//! length it declares is checked against the buffer first.
//!
//! This binary counts every heap allocation through its own global
//! allocator, so it holds this one test and nothing else runs while it
//! measures.

use bytes::{BufMut, Bytes, BytesMut};
use silofuse_distributed::message::{ChunkColumn, CodecError};
use silofuse_distributed::Message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting the bytes it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Decodes `frame`, returning the result and the heap bytes it took.
fn decode_counted(frame: &Bytes) -> (Result<Message, CodecError>, usize) {
    let frame = frame.clone();
    let before = ALLOCATED.load(Relaxed);
    let got = Message::decode(frame);
    (got, ALLOCATED.load(Relaxed) - before)
}

/// `frame` with its declared rows and columns rewritten.
fn with_shape(frame: &Bytes, rows: u32, cols: u32) -> Bytes {
    let mut bytes = frame.as_slice().to_vec();
    bytes[17..21].copy_from_slice(&rows.to_le_bytes());
    bytes[21..25].copy_from_slice(&cols.to_le_bytes());
    Bytes::from(bytes)
}

#[test]
fn lying_or_unknown_chunk_frames_are_refused_without_allocating() {
    let chunk = Message::ServeChunk {
        job: 4,
        first_row: 256,
        rows: 3,
        columns: vec![
            ChunkColumn::F32(vec![0.5, -1.0, 2.0]),
            ChunkColumn::U8(vec![0, 1, 2]),
            ChunkColumn::U16(vec![2_931, 0, 7]),
            ChunkColumn::U32(vec![69_999, 1, 0]),
        ],
    };
    let frame = chunk.encode();
    // The count works: a valid chunk's columns are allocated.
    let (got, bytes) = decode_counted(&frame);
    assert_eq!(got.unwrap(), chunk);
    assert!(bytes >= 3 * (4 + 1 + 2 + 4), "{bytes} bytes for a valid chunk");

    let mut unknown = frame.as_slice().to_vec();
    unknown[25 + 2] = 0x83;
    let mut refused = vec![
        (with_shape(&frame, u32::MAX, u32::MAX), CodecError::Truncated),
        (with_shape(&frame, u32::MAX, 4), CodecError::Truncated),
        (with_shape(&frame, 1 << 30, 4), CodecError::Truncated),
        (with_shape(&frame, 4, 4), CodecError::Truncated),
        (with_shape(&frame, 2, 4), CodecError::Trailing(11)),
        (with_shape(&frame, 3, u32::MAX), CodecError::Truncated),
        (Bytes::from(unknown), CodecError::BadWidth(0x83)),
    ];
    // Every cut of the frame.
    refused.extend((0..frame.len()).map(|cut| (frame.slice(0..cut), CodecError::Truncated)));
    // A header alone that declares a billion rows of four widths.
    let mut header = BytesMut::new();
    header.put_u8(frame.as_slice()[0]);
    header.put_u64_le(4);
    header.put_u64_le(0);
    header.put_u32_le(1 << 30);
    header.put_u32_le(4);
    header.put_slice(&[0x84, 1, 2, 4]);
    refused.push((header.freeze(), CodecError::Truncated));
    for (frame, error) in &refused {
        let (got, bytes) = decode_counted(frame);
        assert_eq!(got.as_ref(), Err(error), "{} bytes", frame.len());
        assert_eq!(bytes, 0, "refusing {error:?} allocated {bytes} bytes");
    }
}
