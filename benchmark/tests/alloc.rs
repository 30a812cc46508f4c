//! The counting allocator on a known allocation pattern. Alone in its test
//! binary: the counters are process-wide, and `cargo test` runs the tests of
//! one binary on parallel threads.

use scion_benchmark::alloc::{counted, snapshot};

#[test]
fn counts_a_known_allocation_pattern() {
    let ((), snap) = counted(|| {
        let a: Vec<u8> = Vec::with_capacity(1000);
        let b: Vec<u8> = Vec::with_capacity(3000);
        drop(a);
        let c: Vec<u8> = Vec::with_capacity(500);
        std::hint::black_box((&b, &c));
    });
    assert_eq!(snap.count, 3);
    assert_eq!(snap.bytes, 4500);
    assert_eq!(snap.peak, 4000, "a and b were live together");
    assert_eq!(snap.live, 0, "everything allocated inside was freed");

    // A block that outlives its window is still live at the end.
    let (kept, snap) = counted(|| vec![0u64; 128]);
    assert_eq!((snap.count, snap.live, snap.peak), (1, 1024, 1024));
    drop(kept);

    // Outside a window nothing is counted.
    let before = snapshot();
    std::hint::black_box(vec![1u8; 64]);
    assert_eq!(snapshot(), before);
}
