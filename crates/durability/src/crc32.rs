//! CRC-32 (IEEE 802.3, the `crc32` of zlib/gzip) — the per-record
//! checksum of the WAL frame format and the trailer of a checkpoint.
//! Hand-rolled so the durability layer stays dependency-free.
//!
//! Recovery checksums every byte it reads — each WAL payload in
//! [`scan`](crate::wal::scan), the whole checkpoint body in
//! [`Checkpoint::from_bytes`](crate::checkpoint::Checkpoint::from_bytes)
//! — so the loop is **slicing-by-8**: eight bytes are folded into the
//! running remainder per step through eight 256-entry tables
//! (`TABLES[k][b]` is the remainder of byte `b` followed by `k` zero
//! bytes), which turns the bytewise loop's chain of eight dependent
//! table look-ups into eight independent ones. The tables are built at
//! compile time; the tail shorter than eight bytes goes through
//! `TABLES[0]`, which is the classic bytewise table. Safe code only,
//! and no alignment requirement: a payload starts wherever its frame
//! header ended.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // One more zero byte behind the same leading byte.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data` (init `0xFFFF_FFFF`, reflected, final xor).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::{crc32, TABLES};

    /// The bytewise loop `crc32` replaced, kept as its reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn check_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"acb"));
    }

    /// Every length 0..=300 at every start offset 0..8 of one seeded
    /// buffer: each split into eight-byte steps and tail, at each
    /// alignment, agrees with the bytewise reference.
    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..308)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "offset {offset}, length {len}"
                );
            }
        }
    }
}
