//! What the two LZ codecs ([`crate::fastlz`], [`crate::deflate`]) share:
//! extending a match on the way in, copying one on the way out.

/// Length of the common prefix of `input[a..]` and `input[b..]`, at most
/// `max`. Compares eight bytes at a time: the first set bit of the XOR of
/// two little-endian words is in the first byte that differs.
///
/// Requires `a + max <= input.len()` and `b + max <= input.len()`.
#[inline]
pub(crate) fn match_len(input: &[u8], a: usize, b: usize, max: usize) -> usize {
    let (x, y) = (&input[a..a + max], &input[b..b + max]);
    let mut len = 0;
    for (wx, wy) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let diff =
            u64::from_le_bytes(wx.try_into().unwrap()) ^ u64::from_le_bytes(wy.try_into().unwrap());
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max && x[len] == y[len] {
        len += 1;
    }
    len
}

/// Append `len` bytes starting `dist` bytes back from the end of `out`.
/// A `dist` smaller than `len` repeats the last `dist` bytes (run-length
/// repetition, as in every LZ format).
///
/// Requires `1 <= dist <= out.len()`.
#[inline]
pub(crate) fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize) {
    let start = out.len() - dist;
    if dist >= len {
        // Disjoint source and destination: one bulk copy.
        out.extend_from_within(start..start + len);
    } else {
        // Overlapping: each pass copies the whole materialized window, so
        // the copied span doubles per iteration instead of moving one
        // byte at a time.
        let mut rem = len;
        while rem > 0 {
            let chunk = rem.min(out.len() - start);
            out.extend_from_within(start..start + chunk);
            rem -= chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_len_is_the_bytewise_common_prefix() {
        // Every first-difference position and cap around the word size.
        let n = 40;
        for diff_at in 0..=n {
            let mut input = vec![7u8; 2 * n];
            if diff_at < n {
                input[n + diff_at] = 8;
            }
            for max in 0..=n {
                assert_eq!(
                    match_len(&input, 0, n, max),
                    diff_at.min(max),
                    "diff at {diff_at}, max {max}"
                );
            }
        }
        // Overlapping ranges (a run): everything matches up to the cap.
        assert_eq!(match_len(&[5u8; 30], 0, 1, 29), 29);
    }

    #[test]
    fn copy_match_is_the_bytewise_copy() {
        for dist in 1..=12 {
            for len in 0..=40 {
                let seed: Vec<u8> = (0..12).collect();
                let mut fast = seed.clone();
                copy_match(&mut fast, dist, len);
                let mut slow = seed.clone();
                let start = slow.len() - dist;
                for k in 0..len {
                    slow.push(slow[start + k]);
                }
                assert_eq!(fast, slow, "dist {dist}, len {len}");
            }
        }
    }
}
