//! Weight snapshots and full-solver checkpoints — the `.caffemodel` and
//! `.solverstate` of this framework.
//!
//! A deliberately simple, versioned little-endian binary format: magic,
//! parameter-blob count, then for each blob its element count and raw
//! f32 data, then the persistent layer state (batch-norm running
//! statistics), and finally a CRC32 of everything after the magic. The
//! network structure itself travels as the JSON `NetDef` (the
//! "prototxt"); loading checks that the blob layout matches the target
//! network, bounds-checks every length-prefixed read, and verifies the
//! trailing checksum. Files written by the previous format revision
//! (`SWCAFFE2`, no checksum) still load.
//!
//! A checkpoint ([`write_checkpoint`]/[`read_checkpoint`]) extends the
//! weight snapshot with the [`SolverState`]: the iteration counter
//! (which also positions the LR schedule — every policy is a pure
//! function of it), the momentum buffers, and the private RNG streams of
//! randomness-consuming layers. Restoring all of it makes a replayed run
//! bit-identical to one that never stopped.

use std::io::{self, Read, Write};

use crate::net::Net;

/// Legacy format: no trailing checksum.
const MAGIC_V2: &[u8; 8] = b"SWCAFFE2";
/// Current weight-snapshot format: trailing CRC32 over the body.
const MAGIC_V3: &[u8; 8] = b"SWCAFFE3";
/// Full-solver checkpoint: weight body + solver section + CRC32.
const CKPT_MAGIC: &[u8; 8] = b"SWCKPT01";

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — table generated at compile time.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Streaming CRC32.
#[derive(Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xffff_ffff)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xffff_ffff
    }
}

struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: Crc32::new(),
        }
    }

    fn into_parts(self) -> (W, u32) {
        (self.inner, self.crc.finish())
    }
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct CrcReader<R: Read> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> CrcReader<R> {
    fn new(inner: R) -> Self {
        CrcReader {
            inner,
            crc: Crc32::new(),
        }
    }

    /// Read the stored trailing checksum (NOT hashed) and compare.
    fn verify_trailer(mut self, what: &str) -> Result<(), String> {
        let computed = self.crc.finish();
        let mut b = [0u8; 4];
        self.inner
            .read_exact(&mut b)
            .map_err(|e| format!("{what}: truncated before checksum trailer: {e}"))?;
        let stored = u32::from_le_bytes(b);
        if stored != computed {
            return Err(format!(
                "{what}: checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) — \
                 file is corrupt"
            ));
        }
        Ok(())
    }
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Primitive readers: every length-prefixed read is bounds-checked
// against what the target network expects *before* any allocation, so a
// truncated or hostile file fails with a message instead of an OOM or a
// partial, silently-wrong load.

fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, String> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)
        .map_err(|e| format!("truncated reading {what}: {e}"))?;
    Ok(u64::from_le_bytes(b))
}

/// Read `len` f32s after checking the declared length equals `expect`.
fn read_f32s_into<R: Read>(r: &mut R, dst: &mut [f32], what: &str) -> Result<(), String> {
    let len = read_u64(r, &format!("{what} length"))? as usize;
    if len != dst.len() {
        return Err(format!(
            "{what}: snapshot declares {len} elements, network expects {}",
            dst.len()
        ));
    }
    let bytes = len
        .checked_mul(4)
        .ok_or_else(|| format!("{what}: length {len} overflows"))?;
    let mut buf = vec![0u8; bytes];
    r.read_exact(&mut buf)
        .map_err(|e| format!("truncated reading {what} ({len} elements): {e}"))?;
    for (dst, chunk) in dst.iter_mut().zip(buf.chunks_exact(4)) {
        *dst = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    Ok(())
}

fn write_f32s<W: Write>(w: &mut W, data: &[f32]) -> io::Result<()> {
    w.write_all(&(data.len() as u64).to_le_bytes())?;
    for v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Weight body: parameter blobs, then persistent layer state.

fn write_body<W: Write>(net: &Net, w: &mut W) -> io::Result<()> {
    let params = net.params();
    w.write_all(&(params.len() as u64).to_le_bytes())?;
    for p in &params {
        write_f32s(w, p.data())?;
    }
    let state = net.state();
    w.write_all(&(state.len() as u64).to_le_bytes())?;
    for s in &state {
        write_f32s(w, s)?;
    }
    Ok(())
}

fn read_body<R: Read>(net: &mut Net, r: &mut R) -> Result<(), String> {
    let count = read_u64(r, "parameter blob count")? as usize;
    let mut params = net.params_mut();
    if count != params.len() {
        return Err(format!(
            "snapshot has {count} blobs, network has {}",
            params.len()
        ));
    }
    for (i, p) in params.iter_mut().enumerate() {
        read_f32s_into(r, p.data_mut(), &format!("blob {i}"))?;
    }
    drop(params);
    let state_count = read_u64(r, "state vector count")? as usize;
    let mut state = net.state_mut();
    if state_count != state.len() {
        return Err(format!(
            "snapshot has {state_count} state vectors, network has {}",
            state.len()
        ));
    }
    for (i, sv) in state.iter_mut().enumerate() {
        read_f32s_into(r, sv, &format!("state vector {i}"))?;
    }
    Ok(())
}

/// Serialise all parameter blobs and persistent layer state (batch-norm
/// running statistics) of a (materialised) net, with a trailing CRC32.
pub fn write_weights<W: Write>(net: &Net, mut w: W) -> io::Result<()> {
    w.write_all(MAGIC_V3)?;
    let mut cw = CrcWriter::new(w);
    write_body(net, &mut cw)?;
    let (mut w, crc) = cw.into_parts();
    w.write_all(&crc.to_le_bytes())
}

/// Load parameter blobs into a (materialised) net. Fails when the blob
/// layout does not match, any section is truncated, or (for
/// current-format files) the trailing checksum does not verify. Legacy
/// `SWCAFFE2` files — written before the checksum existed — still load.
pub fn read_weights<R: Read>(net: &mut Net, mut r: R) -> Result<(), String> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| format!("truncated reading magic: {e}"))?;
    if &magic == MAGIC_V2 {
        // Legacy format: no checksum trailer.
        return read_body(net, &mut r);
    }
    if &magic != MAGIC_V3 {
        return Err("not a swcaffe weight file".into());
    }
    let mut cr = CrcReader::new(r);
    read_body(net, &mut cr)?;
    cr.verify_trailer("weight snapshot")
}

// ---------------------------------------------------------------------
// Full-solver checkpoints.

/// Everything beyond the weights that a bit-identical resume needs:
/// the iteration counter (which also positions the LR schedule), the
/// solver's momentum buffers, and the private RNG streams of
/// randomness-consuming layers (dropout mask sequences).
#[derive(Debug, Clone, PartialEq)]
pub struct SolverState {
    pub iteration: u64,
    /// Momentum buffers, one per parameter blob; empty if the solver
    /// never stepped.
    pub momentum: Vec<Vec<f32>>,
    /// One stream per randomness-consuming layer, in layer order.
    pub rng_streams: Vec<u64>,
}

/// Write a full checkpoint: weights + persistent state + solver state,
/// with a trailing CRC32.
pub fn write_checkpoint<W: Write>(net: &Net, state: &SolverState, mut w: W) -> io::Result<()> {
    w.write_all(CKPT_MAGIC)?;
    let mut cw = CrcWriter::new(w);
    write_body(net, &mut cw)?;
    cw.write_all(&state.iteration.to_le_bytes())?;
    cw.write_all(&(state.momentum.len() as u64).to_le_bytes())?;
    for m in &state.momentum {
        write_f32s(&mut cw, m)?;
    }
    cw.write_all(&(state.rng_streams.len() as u64).to_le_bytes())?;
    for s in &state.rng_streams {
        cw.write_all(&s.to_le_bytes())?;
    }
    let (mut w, crc) = cw.into_parts();
    w.write_all(&crc.to_le_bytes())
}

/// Restore a full checkpoint into `net` (weights, persistent state, RNG
/// streams) and return the [`SolverState`] for the caller to hand to its
/// solver. Every section is bounds-checked against the network and the
/// trailing CRC32 must verify.
pub fn read_checkpoint<R: Read>(net: &mut Net, mut r: R) -> Result<SolverState, String> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| format!("truncated reading magic: {e}"))?;
    if &magic != CKPT_MAGIC {
        return Err("not a swcaffe checkpoint file".into());
    }
    let mut cr = CrcReader::new(r);
    read_body(net, &mut cr)?;
    let iteration = read_u64(&mut cr, "iteration")?;
    let momentum_count = read_u64(&mut cr, "momentum blob count")? as usize;
    let param_lens: Vec<usize> = net.params().iter().map(|p| p.len()).collect();
    if momentum_count != 0 && momentum_count != param_lens.len() {
        return Err(format!(
            "checkpoint has {momentum_count} momentum blobs, network has {} parameter blobs",
            param_lens.len()
        ));
    }
    let mut momentum = Vec::with_capacity(momentum_count);
    for (i, &plen) in param_lens.iter().take(momentum_count).enumerate() {
        let mut m = vec![0.0f32; plen];
        read_f32s_into(&mut cr, &mut m, &format!("momentum blob {i}"))?;
        momentum.push(m);
    }
    let stream_count = read_u64(&mut cr, "rng stream count")? as usize;
    let expected_streams = net.rng_streams().len();
    if stream_count != expected_streams {
        return Err(format!(
            "checkpoint has {stream_count} rng streams, network has {expected_streams} \
             randomness-consuming layers"
        ));
    }
    let mut rng_streams = Vec::with_capacity(stream_count);
    for i in 0..stream_count {
        let mut b = [0u8; 8];
        cr.read_exact(&mut b)
            .map_err(|e| format!("truncated reading rng stream {i}: {e}"))?;
        rng_streams.push(u64::from_le_bytes(b));
    }
    cr.verify_trailer("checkpoint")?;
    net.set_rng_streams(&rng_streams)?;
    Ok(SolverState {
        iteration,
        momentum,
        rng_streams,
    })
}

// ---------------------------------------------------------------------
// Convenience: snapshot to / restore from a file path.

pub fn save(net: &Net, path: &std::path::Path) -> io::Result<()> {
    write_weights(net, std::io::BufWriter::new(std::fs::File::create(path)?))
}

pub fn load(net: &mut Net, path: &std::path::Path) -> Result<(), String> {
    let f = std::fs::File::open(path).map_err(|e| e.to_string())?;
    read_weights(net, std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn roundtrip_restores_weights_exactly() {
        let def = models::tiny_cnn(2, 3);
        let net = Net::from_def(&def, true).unwrap();
        let mut bytes = Vec::new();
        write_weights(&net, &mut bytes).unwrap();

        // A differently-seeded net... actually identical seeds, so scribble
        // on it first to prove the load really overwrites.
        let mut other = Net::from_def(&def, true).unwrap();
        for p in other.params_mut() {
            p.data_mut().fill(9.9);
        }
        read_weights(&mut other, &bytes[..]).unwrap();
        for (a, b) in net.params().iter().zip(other.params()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn rejects_wrong_magic_and_shape() {
        let def = models::tiny_cnn(2, 3);
        let mut net = Net::from_def(&def, true).unwrap();
        assert!(read_weights(&mut net, &b"NOTAFILE"[..]).is_err());

        // Snapshot of a structurally different network must be rejected.
        let other_def = models::tiny_cnn(2, 7);
        let other = Net::from_def(&other_def, true).unwrap();
        let mut bytes = Vec::new();
        write_weights(&other, &mut bytes).unwrap();
        assert!(read_weights(&mut net, &bytes[..]).is_err());
    }

    #[test]
    fn state_roundtrips_too() {
        use sw26010::{CoreGroup, ExecMode};
        let def = models::tiny_cnn(2, 3);
        let mut net = Net::from_def(&def, true).unwrap();
        // Run a forward pass so the BN running stats move off their init.
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let data: Vec<f32> = (0..2 * 3 * 16 * 16)
            .map(|i| (i % 11) as f32 * 0.3)
            .collect();
        net.set_input("data", &data);
        net.set_input("label", &[0.0, 1.0]);
        net.forward(&mut cg);
        let state_before: Vec<Vec<f32>> = net.state().iter().map(|s| s.to_vec()).collect();
        assert!(state_before
            .iter()
            .any(|s| s.iter().any(|v| *v != 0.0 && *v != 1.0)));

        let mut bytes = Vec::new();
        write_weights(&net, &mut bytes).unwrap();
        let mut other = Net::from_def(&def, true).unwrap();
        read_weights(&mut other, &bytes[..]).unwrap();
        let state_after: Vec<Vec<f32>> = other.state().iter().map(|s| s.to_vec()).collect();
        assert_eq!(state_before, state_after);
    }

    #[test]
    fn file_roundtrip() {
        let def = models::tiny_cnn(2, 3);
        let net = Net::from_def(&def, true).unwrap();
        let path = std::env::temp_dir().join("swcaffe_snapshot_test.bin");
        save(&net, &path).unwrap();
        let mut loaded = Net::from_def(&def, true).unwrap();
        for p in loaded.params_mut() {
            p.data_mut().fill(0.0);
        }
        load(&mut loaded, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(net.params()[0].data(), loaded.params()[0].data());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value, through the streaming CRC that
        // the snapshot writer and reader use, fed in two pieces.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xcbf4_3926);
        assert_eq!(Crc32::new().finish(), 0);
    }

    #[test]
    fn legacy_v2_files_still_load() {
        let def = models::tiny_cnn(2, 3);
        let net = Net::from_def(&def, true).unwrap();

        // Hand-assemble a legacy file: old magic, same body, no trailer.
        let mut legacy = Vec::new();
        legacy.extend_from_slice(MAGIC_V2);
        write_body(&net, &mut legacy).unwrap();

        let mut loaded = Net::from_def(&def, true).unwrap();
        for p in loaded.params_mut() {
            p.data_mut().fill(0.0);
        }
        read_weights(&mut loaded, &legacy[..]).unwrap();
        for (a, b) in net.params().iter().zip(loaded.params()) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn truncated_files_fail_with_context() {
        let def = models::tiny_cnn(2, 3);
        let net = Net::from_def(&def, true).unwrap();
        let mut bytes = Vec::new();
        write_weights(&net, &mut bytes).unwrap();

        // Cut the file at several depths: inside the magic, inside a
        // length prefix, inside blob data, inside the trailer.
        for cut in [4, 10, 20, bytes.len() / 2, bytes.len() - 2] {
            let mut net2 = Net::from_def(&def, true).unwrap();
            let err = read_weights(&mut net2, &bytes[..cut]).unwrap_err();
            assert!(
                err.contains("truncated"),
                "cut at {cut}: error should mention truncation, got: {err}"
            );
        }
    }

    #[test]
    fn corrupt_payload_fails_the_checksum() {
        let def = models::tiny_cnn(2, 3);
        let net = Net::from_def(&def, true).unwrap();
        let mut bytes = Vec::new();
        write_weights(&net, &mut bytes).unwrap();

        // Flip one bit in the middle of a parameter blob: the layout
        // still parses, so only the CRC can catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let mut net2 = Net::from_def(&def, true).unwrap();
        let err = read_weights(&mut net2, &bytes[..]).unwrap_err();
        assert!(
            err.contains("checksum mismatch"),
            "expected checksum failure, got: {err}"
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let def = models::tiny_cnn(2, 3);
        let net = Net::from_def(&def, true).unwrap();
        let mut bytes = Vec::new();
        write_weights(&net, &mut bytes).unwrap();

        // Overwrite the first blob's length prefix (right after magic +
        // blob count) with a huge value: the reader must reject it from
        // the layout check, never allocating.
        bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut net2 = Net::from_def(&def, true).unwrap();
        let err = read_weights(&mut net2, &bytes[..]).unwrap_err();
        assert!(err.contains("network expects"), "got: {err}");
    }

    #[test]
    fn checkpoint_roundtrips_solver_state() {
        use crate::solver::{SgdSolver, SolverConfig};
        use sw26010::{CoreGroup, ExecMode};

        // A net with dropout so an RNG stream is in play.
        let def = models::tiny_dropout_cnn(2, 3);
        let mut net = Net::from_def(&def, true).unwrap();
        let mut cg = CoreGroup::new(ExecMode::Functional);
        let mut solver = SgdSolver::new(SolverConfig::default());

        // Train a couple of iterations so every piece of state is warm.
        let data: Vec<f32> = (0..2 * 3 * 8 * 8).map(|i| (i % 13) as f32 * 0.1).collect();
        for it in 0..3 {
            net.set_input("data", &data);
            net.set_input("label", &[(it % 3) as f32, ((it + 1) % 3) as f32]);
            net.zero_param_diffs();
            net.forward(&mut cg);
            net.backward(&mut cg);
            solver.step(&mut cg, &mut net);
        }
        assert_eq!(net.rng_streams().len(), 1, "dropout stream must be visible");
        assert_ne!(
            net.rng_streams()[0],
            0x1234_5678,
            "stream must have advanced"
        );
        let state = SolverState {
            iteration: solver.iter() as u64,
            momentum: solver.history().to_vec(),
            rng_streams: net.rng_streams(),
        };
        let mut bytes = Vec::new();
        write_checkpoint(&net, &state, &mut bytes).unwrap();

        let mut restored_net = Net::from_def(&def, true).unwrap();
        let restored = read_checkpoint(&mut restored_net, &bytes[..]).unwrap();
        assert_eq!(restored, state);
        assert_eq!(restored_net.rng_streams(), net.rng_streams());
        for (a, b) in net.params().iter().zip(restored_net.params()) {
            assert_eq!(a.data(), b.data());
        }

        // Corrupt one byte anywhere: checksum must catch it.
        let mut dirty = bytes.clone();
        let mid = dirty.len() / 3;
        dirty[mid] ^= 0x01;
        let mut net3 = Net::from_def(&def, true).unwrap();
        assert!(read_checkpoint(&mut net3, &dirty[..]).is_err());
    }
}
