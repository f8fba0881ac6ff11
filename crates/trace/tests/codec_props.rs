//! Property tests for the recorded-trace codec and the `.fadet`
//! container: the encode→decode round-trip is the identity for
//! *arbitrary* record sequences (not just generator output), whatever
//! the chunking; no byte-level corruption — truncation, bit flips,
//! random garbage — ever panics the decoder or slips through as a
//! silently wrong trace; and [`ChunkDecoder`] returns exactly what a
//! byte-at-a-time reference decoder returns, records and error offsets
//! alike.

use fade_isa::{
    AppInstr, HighLevelEvent, InstrClass, MemRef, Reg, StackUpdateEvent, StackUpdateKind, VirtAddr,
    NUM_REGS,
};
use fade_trace::codec::{encode_chunk, write_varint, ChunkDecoder, CodecError};
use fade_trace::file::{
    decode_trace, decode_trace_recovering, encode_trace, TraceFileError, TraceMeta, TraceWriter,
};
use fade_trace::TraceRecord;
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = InstrClass> {
    (0usize..InstrClass::ALL.len()).prop_map(|i| InstrClass::ALL[i])
}

fn arb_opt_reg() -> impl Strategy<Value = Option<Reg>> {
    prop_oneof![Just(None), (0u8..32).prop_map(|i| Some(Reg::new(i)))]
}

/// Access sizes: the architectural ones plus arbitrary bytes, so the
/// explicit-size escape path is exercised.
fn arb_mem() -> impl Strategy<Value = Option<MemRef>> {
    let size = prop_oneof![Just(4u8), Just(1u8), Just(2u8), Just(8u8), any::<u8>()];
    prop_oneof![
        Just(None),
        (any::<u32>(), size).prop_map(|(addr, size)| Some(MemRef {
            addr: VirtAddr::new(addr),
            size,
        })),
    ]
}

fn arb_instr() -> impl Strategy<Value = TraceRecord> {
    (
        (any::<u32>(), arb_class()),
        (arb_opt_reg(), arb_opt_reg(), arb_opt_reg()),
        arb_mem(),
        (any::<u8>(), any::<bool>()),
    )
        .prop_map(|((pc, class), (src1, src2, dest), mem, (tid, result_ptr))| {
            let mut i = AppInstr::new(VirtAddr::new(pc), class)
                .with_tid(tid)
                .with_result_ptr(result_ptr);
            if let Some(r) = src1 {
                i = i.with_src1(r);
            }
            if let Some(r) = src2 {
                i = i.with_src2(r);
            }
            if let Some(r) = dest {
                i = i.with_dest(r);
            }
            if let Some(m) = mem {
                i = i.with_mem(m);
            }
            TraceRecord::Instr(i)
        })
}

fn arb_stack() -> impl Strategy<Value = TraceRecord> {
    (any::<u32>(), any::<u32>(), any::<bool>(), any::<u8>()).prop_map(
        |(base, len, call, tid)| {
            TraceRecord::Stack(StackUpdateEvent {
                base: VirtAddr::new(base),
                len,
                kind: if call {
                    StackUpdateKind::Call
                } else {
                    StackUpdateKind::Return
                },
                tid,
            })
        },
    )
}

/// Every [`HighLevelEvent`] variant.
fn arb_high() -> impl Strategy<Value = TraceRecord> {
    prop_oneof![
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(base, len, ctx)| {
            TraceRecord::High(HighLevelEvent::Malloc {
                base: VirtAddr::new(base),
                len,
                ctx,
            })
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(base, len)| TraceRecord::High(
            HighLevelEvent::Free {
                base: VirtAddr::new(base),
                len,
            }
        )),
        (any::<u32>(), any::<u32>()).prop_map(|(base, len)| TraceRecord::High(
            HighLevelEvent::TaintSource {
                base: VirtAddr::new(base),
                len,
            }
        )),
        any::<u8>().prop_map(|tid| TraceRecord::High(HighLevelEvent::ThreadSwitch { tid })),
    ]
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    prop_oneof![arb_instr(), arb_stack(), arb_high()]
}

fn meta() -> TraceMeta {
    TraceMeta::new("arbitrary", 7)
}

fn encode_chunked(records: &[TraceRecord], chunk_records: usize) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), &meta())
        .unwrap()
        .with_chunk_records(chunk_records);
    w.write_all(records).unwrap();
    w.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode→decode is the identity for arbitrary record sequences,
    /// across chunk sizes down to one record per chunk — so every
    /// prediction-context reset at a chunk boundary is exercised, and
    /// records straddling boundaries in every possible way survive.
    #[test]
    fn round_trip_is_identity(
        records in prop::collection::vec(arb_record(), 0..300),
        chunk_records in 1usize..80,
    ) {
        let bytes = encode_chunked(&records, chunk_records);
        let (m, back) = decode_trace(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(m, meta());
        prop_assert_eq!(back, records);
    }

    /// Chunking is invisible: any two chunk sizes produce byte streams
    /// that decode to the same records.
    #[test]
    fn chunking_does_not_change_the_decoded_trace(
        records in prop::collection::vec(arb_record(), 1..200),
        a in 1usize..50,
        b in 50usize..5000,
    ) {
        let da = decode_trace(&encode_chunked(&records, a))
            .map_err(|e| TestCaseError::fail(format!("decode a: {e}")))?;
        let db = decode_trace(&encode_chunked(&records, b))
            .map_err(|e| TestCaseError::fail(format!("decode b: {e}")))?;
        prop_assert_eq!(da.1, db.1);
    }

    /// Every strict prefix of a valid file fails with a typed error —
    /// the mandatory trailer means truncation can never read as a
    /// shorter-but-valid trace, and it never panics.
    #[test]
    fn truncation_is_always_a_typed_error(
        records in prop::collection::vec(arb_record(), 0..120),
        cut_seed in any::<u64>(),
    ) {
        let bytes = encode_chunked(&records, 32);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(decode_trace(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
    }

    /// Any single bit flip anywhere in the file is detected: header and
    /// trailer fields are covered by their own CRCs, payloads by the
    /// per-chunk CRC, and structure fields fail validation. Never Ok,
    /// never a panic.
    #[test]
    fn single_bit_flips_are_always_detected(
        records in prop::collection::vec(arb_record(), 1..120),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut bytes = encode_chunked(&records, 32);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        match decode_trace(&bytes) {
            Err(_) => {}
            Ok((m, back)) => {
                // The only acceptable "Ok" would be a flip that decodes
                // back to the identical trace — impossible for a real
                // flip, so flag it loudly.
                prop_assert!(
                    m == meta() && back == records,
                    "flip at byte {pos} bit {bit} produced a different valid trace"
                );
                prop_assert!(false, "flip at byte {pos} bit {bit} went undetected");
            }
        }
    }

    /// The trailer ends the stream: any non-empty suffix after a valid
    /// file is detected — `BadStructure` at its first byte in strict
    /// mode, skipped and accounted in recover mode.
    #[test]
    fn any_suffix_after_a_valid_file_is_detected(
        records in prop::collection::vec(arb_record(), 0..80),
        suffix in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = encode_chunked(&records, 32);
        let end = bytes.len() as u64;
        bytes.extend_from_slice(&suffix);
        prop_assert_eq!(
            decode_trace(&bytes),
            Err(TraceFileError::BadStructure { offset: end })
        );
        let (_, back, report) = decode_trace_recovering(&bytes)
            .map_err(|e| TestCaseError::fail(format!("recovering decode failed: {e}")))?;
        prop_assert_eq!(back, records);
        prop_assert!(!report.is_clean());
        prop_assert!(report.trailer_verified);
        prop_assert_eq!(report.bytes_skipped, suffix.len() as u64);
    }

    /// Feeding arbitrary garbage to the decoder returns an error (or an
    /// empty-but-valid trace if the bytes happen to be one) without
    /// panicking — the fuzz guarantee the robustness contract promises.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode_trace(&bytes);
    }

    /// Same, but with a valid header prefix so the fuzz reaches the
    /// chunk machinery instead of dying at the magic check.
    #[test]
    fn garbage_after_a_valid_header_never_panics(tail in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut bytes = encode_trace(&meta(), &[]);
        // Strip the trailer (13 bytes), then append garbage.
        bytes.truncate(bytes.len() - 13);
        bytes.extend_from_slice(&tail);
        let _ = decode_trace(&bytes);
    }
}

/// Truncation mid-file names a typed error for *every* cut point, not
/// just sampled ones (exhaustive on a small trace).
#[test]
fn exhaustive_truncation_sweep() {
    let records: Vec<TraceRecord> = (0..64u32)
        .map(|i| {
            TraceRecord::Instr(
                AppInstr::new(VirtAddr::new(0x1000 + 4 * i), InstrClass::Load)
                    .with_dest(Reg::new(5))
                    .with_mem(MemRef::word(VirtAddr::new(0x8000_0000 + 8 * i))),
            )
        })
        .collect();
    let bytes = encode_chunked(&records, 16);
    for cut in 0..bytes.len() {
        match decode_trace(&bytes[..cut]) {
            Err(
                TraceFileError::BadMagic
                | TraceFileError::BadHeader
                | TraceFileError::Truncated { .. },
            ) => {}
            other => panic!("cut at {cut}: unexpected {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Decoder oracle
// ---------------------------------------------------------------------

/// The byte-at-a-time chunk decoder: one bounds-checked read per byte,
/// kept as the specification [`ChunkDecoder::decode_all`] must match —
/// the same records, or the same [`CodecError`] kind at the same offset.
fn reference_decode(buf: &[u8], expected: usize) -> Result<Vec<TraceRecord>, CodecError> {
    struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
    }
    impl Cursor<'_> {
        fn u8(&mut self) -> Result<u8, CodecError> {
            let b = *self
                .buf
                .get(self.pos)
                .ok_or(CodecError::Truncated { offset: self.pos })?;
            self.pos += 1;
            Ok(b)
        }
        fn varint32(&mut self) -> Result<u32, CodecError> {
            let start = self.pos;
            let mut v: u64 = 0;
            for shift in (0..).step_by(7) {
                let b = self.u8()?;
                if shift >= 35 {
                    return Err(CodecError::BadOperand { offset: start });
                }
                v |= ((b & 0x7f) as u64) << shift;
                if b & 0x80 == 0 {
                    break;
                }
            }
            u32::try_from(v).map_err(|_| CodecError::BadOperand { offset: start })
        }
        fn reg(&mut self) -> Result<Reg, CodecError> {
            let at = self.pos;
            let idx = self.u8()?;
            if (idx as usize) < NUM_REGS {
                Ok(Reg::new(idx))
            } else {
                Err(CodecError::BadOperand { offset: at })
            }
        }
    }
    fn unzigzag(z: u32, prev: u32) -> u32 {
        let d = ((z >> 1) as i32) ^ -((z & 1) as i32);
        prev.wrapping_add(d as u32)
    }

    let mut c = Cursor { buf, pos: 0 };
    let (mut prev_pc, mut prev_mem, mut prev_stack, mut prev_heap, mut cur_tid) =
        (0u32, 0u32, 0u32, 0u32, 0u8);
    let mut out = Vec::new();
    for _ in 0..expected {
        if c.pos >= buf.len() {
            return Err(CodecError::Truncated { offset: c.pos });
        }
        let tag_offset = c.pos;
        let tag = c.u8()?;
        let rec = match tag {
            t if t <= 10 => {
                let flags = c.u8()?;
                let pc = unzigzag(c.varint32()?, prev_pc);
                prev_pc = pc;
                let mut i = AppInstr::new(VirtAddr::new(pc), InstrClass::ALL[t as usize])
                    .with_result_ptr(flags & F_RESULT_PTR != 0)
                    .with_tid(cur_tid);
                if flags & F_SRC1 != 0 {
                    i = i.with_src1(c.reg()?);
                }
                if flags & F_SRC2 != 0 {
                    i = i.with_src2(c.reg()?);
                }
                if flags & F_DEST != 0 {
                    i = i.with_dest(c.reg()?);
                }
                if flags & F_TID != 0 {
                    i = i.with_tid(c.u8()?);
                }
                if flags & F_MEM != 0 {
                    let addr = unzigzag(c.varint32()?, prev_mem);
                    prev_mem = addr;
                    let size = match flags >> 6 {
                        0 => 4,
                        1 => 1,
                        2 => 2,
                        _ => c.u8()?,
                    };
                    i = i.with_mem(MemRef {
                        addr: VirtAddr::new(addr),
                        size,
                    });
                }
                TraceRecord::Instr(i)
            }
            TAG_STACK_CALL | TAG_STACK_RETURN => {
                let base = unzigzag(c.varint32()?, prev_stack);
                prev_stack = base;
                let len = c.varint32()?;
                let tid = c.u8()?;
                TraceRecord::Stack(StackUpdateEvent {
                    base: VirtAddr::new(base),
                    len,
                    kind: if tag == TAG_STACK_CALL {
                        StackUpdateKind::Call
                    } else {
                        StackUpdateKind::Return
                    },
                    tid,
                })
            }
            TAG_MALLOC => {
                let base = unzigzag(c.varint32()?, prev_heap);
                prev_heap = base;
                TraceRecord::High(HighLevelEvent::Malloc {
                    base: VirtAddr::new(base),
                    len: c.varint32()?,
                    ctx: c.varint32()?,
                })
            }
            TAG_FREE => {
                let base = unzigzag(c.varint32()?, prev_heap);
                prev_heap = base;
                TraceRecord::High(HighLevelEvent::Free {
                    base: VirtAddr::new(base),
                    len: c.varint32()?,
                })
            }
            TAG_TAINT_SOURCE => {
                let base = unzigzag(c.varint32()?, prev_heap);
                prev_heap = base;
                TraceRecord::High(HighLevelEvent::TaintSource {
                    base: VirtAddr::new(base),
                    len: c.varint32()?,
                })
            }
            TAG_THREAD_SWITCH => {
                let tid = c.u8()?;
                cur_tid = tid;
                TraceRecord::High(HighLevelEvent::ThreadSwitch { tid })
            }
            _ => return Err(CodecError::BadTag { offset: tag_offset }),
        };
        out.push(rec);
    }
    if c.pos < buf.len() {
        return Err(CodecError::BadTag { offset: c.pos });
    }
    Ok(out)
}

// The wire constants the reference decoder reads (mirroring the codec's
// private ones; any drift shows up as an oracle mismatch).
const TAG_STACK_CALL: u8 = 11;
const TAG_STACK_RETURN: u8 = 12;
const TAG_MALLOC: u8 = 13;
const TAG_FREE: u8 = 14;
const TAG_TAINT_SOURCE: u8 = 15;
const TAG_THREAD_SWITCH: u8 = 16;
const F_SRC1: u8 = 1 << 0;
const F_SRC2: u8 = 1 << 1;
const F_DEST: u8 = 1 << 2;
const F_MEM: u8 = 1 << 3;
const F_RESULT_PTR: u8 = 1 << 4;
const F_TID: u8 = 1 << 5;
const SIZE_EXPLICIT: u8 = 3 << 6;

fn decode(payload: &[u8], expected: usize) -> Result<Vec<TraceRecord>, CodecError> {
    let mut out = Vec::new();
    ChunkDecoder::new(payload)
        .decode_all(expected, &mut out)
        .map(|()| out)
}

/// Asserts decoder and oracle agree on `(payload, expected)`.
fn check_oracle(payload: &[u8], expected: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        decode(payload, expected),
        reference_decode(payload, expected),
        "payload {:02x?}, expecting {} record(s)",
        payload,
        expected
    );
    Ok(())
}

fn payload_of(records: &[TraceRecord]) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_chunk(records, &mut payload);
    payload
}

/// Bytes biased towards the codec's interesting values: record tags,
/// continuation bytes and register indices around the 32 boundary.
fn arb_codec_byte() -> impl Strategy<Value = u8> {
    prop_oneof![0u8..=17, 0x80u8..=0xff, 28u8..36, any::<u8>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Valid payloads decode identically (and round-trip).
    #[test]
    fn decoder_matches_reference_on_valid_payloads(
        records in prop::collection::vec(arb_record(), 0..200),
    ) {
        let payload = payload_of(&records);
        check_oracle(&payload, records.len())?;
        prop_assert_eq!(decode(&payload, records.len()), Ok(records));
    }

    /// Every truncation of a valid payload fails the same way in both.
    #[test]
    fn decoder_matches_reference_on_every_truncation(
        records in prop::collection::vec(arb_record(), 1..40),
    ) {
        let payload = payload_of(&records);
        for cut in 0..payload.len() {
            check_oracle(&payload[..cut], records.len())?;
        }
    }

    /// A single bit flip anywhere, under the promised record count and
    /// one fewer (so trailing bytes are exercised too).
    #[test]
    fn decoder_matches_reference_on_bit_flips(
        records in prop::collection::vec(arb_record(), 1..60),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut payload = payload_of(&records);
        let pos = (pos_seed % payload.len() as u64) as usize;
        payload[pos] ^= 1 << bit;
        check_oracle(&payload, records.len())?;
        check_oracle(&payload, records.len() - 1)?;
    }

    /// Arbitrary (codec-biased) bytes under arbitrary record counts.
    #[test]
    fn decoder_matches_reference_on_arbitrary_bytes(
        bytes in prop::collection::vec(arb_codec_byte(), 0..64),
        expected in 0usize..24,
    ) {
        check_oracle(&bytes, expected)?;
    }
}

/// Hand-built edge cases: varint limits, register bounds, explicit
/// sizes, and records ending 1–8 bytes before the payload end so every
/// 8-byte window load straddles it.
#[test]
fn decoder_matches_reference_on_edge_cases() {
    let instr = |flags: u8, tail: &[u8]| {
        let mut p = vec![2u8, flags];
        p.extend_from_slice(tail);
        p
    };
    let mut cases: Vec<(Vec<u8>, usize)> = vec![
        // 5-byte pc varints at u32::MAX (valid) and u32::MAX + 1.
        (instr(0, &[0xff, 0xff, 0xff, 0xff, 0x0f]), 1),
        (instr(0, &[0x80, 0x80, 0x80, 0x80, 0x10]), 1),
        // 6-byte varints: present (overlong) and cut before byte 6.
        (instr(0, &[0x80, 0x80, 0x80, 0x80, 0x80, 0x00]), 1),
        (instr(0, &[0x80, 0x80, 0x80, 0x80, 0x80]), 1),
        (instr(0, &[0xff; 9]), 1),
        // Registers 31 (valid) and 32 (invalid), in each operand slot.
        (instr(F_SRC1 | F_SRC2 | F_DEST, &[0x08, 31, 31, 31]), 1),
        (instr(F_SRC1 | F_SRC2 | F_DEST, &[0x08, 32, 1, 2]), 1),
        (instr(F_SRC1 | F_SRC2 | F_DEST, &[0x08, 1, 32, 2]), 1),
        (instr(F_SRC1 | F_SRC2 | F_DEST, &[0x08, 1, 2, 32]), 1),
        // A bad register followed by truncation: the register wins.
        (instr(F_SRC1 | F_SRC2 | F_DEST, &[0x08, 0xff]), 1),
        // Explicit sizes, present and missing.
        (instr(F_MEM | SIZE_EXPLICIT, &[0x08, 0x10, 0x07]), 1),
        (instr(F_MEM | SIZE_EXPLICIT, &[0x08, 0x10]), 1),
        // Size bits without F_MEM are ignored.
        (instr(SIZE_EXPLICIT, &[0x08]), 1),
        // Explicit tid and every flag at once.
        (instr(0xff, &[0x08, 1, 2, 3, 7, 0x90, 0x01, 0x20]), 1),
        // A thread switch as the last byte pair, and cut after its tag.
        (vec![TAG_THREAD_SWITCH, 3], 1),
        (vec![TAG_THREAD_SWITCH], 1),
        (vec![2, 0, 0x08, TAG_THREAD_SWITCH, 9], 2),
        // Overlong varints in every non-instruction record.
        (
            vec![TAG_MALLOC, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            1,
        ),
        (vec![TAG_FREE, 0, 0xff, 0xff, 0xff, 0xff, 0x1f], 1),
        (vec![TAG_STACK_CALL, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80], 1),
        (vec![TAG_TAINT_SOURCE, 4], 1),
        // Unknown tags and trailing bytes.
        (vec![17], 1),
        (vec![0xff, 0, 0], 1),
        (vec![2, 0, 0x08, 0], 1),
        (vec![], 1),
        (vec![], 0),
    ];
    // Records ending exactly 1..=8 bytes before the payload end, so
    // their window loads straddle it: a full record followed by `k`
    // bytes of two-byte thread switches and three-byte nops (a lone
    // thread-switch tag when k = 1), plus every cut of that payload.
    let tails: Vec<TraceRecord> = vec![
        TraceRecord::Instr(
            AppInstr::new(VirtAddr::new(0x4000_0000), InstrClass::Store)
                .with_src1(Reg::new(31))
                .with_src2(Reg::new(3))
                .with_tid(5)
                .with_mem(MemRef {
                    addr: VirtAddr::new(u32::MAX),
                    size: 16,
                }),
        ),
        TraceRecord::Instr(AppInstr::new(VirtAddr::new(4), InstrClass::Nop)),
        TraceRecord::Stack(StackUpdateEvent {
            base: VirtAddr::new(0x7fff_0000),
            len: 96,
            kind: StackUpdateKind::Return,
            tid: 1,
        }),
        TraceRecord::High(HighLevelEvent::Malloc {
            base: VirtAddr::new(u32::MAX),
            len: u32::MAX,
            ctx: 1,
        }),
        TraceRecord::High(HighLevelEvent::ThreadSwitch { tid: 200 }),
    ];
    for tail in &tails {
        for k in 1..=8usize {
            let mut p = payload_of(std::slice::from_ref(tail));
            let mut n = 1;
            let mut left = k;
            while left > 0 {
                let piece: &[u8] = match left {
                    1 => &[TAG_THREAD_SWITCH],
                    2 | 4 => &[TAG_THREAD_SWITCH, 0],
                    _ => &[10, 0, 0],
                };
                p.extend_from_slice(piece);
                left -= piece.len();
                n += 1;
            }
            for cut in 0..=p.len() {
                cases.push((p[..cut].to_vec(), n));
            }
        }
    }
    // Every varint length 1..=5 at every value boundary.
    for v in [
        0u64,
        0x7f,
        0x80,
        0x3fff,
        0x4000,
        0x1f_ffff,
        0x20_0000,
        0xfff_ffff,
        0x1000_0000,
    ] {
        let mut p = vec![2u8, 0];
        write_varint(&mut p, v);
        cases.push((p, 1));
    }
    for (payload, expected) in &cases {
        check_oracle(payload, *expected).unwrap_or_else(|e| panic!("{e}"));
    }
}
