//! Property: `parse` is total on hostile text. Mutating a valid kernel —
//! byte edits, deletions, duplicated spans, repeated kernels, declared
//! counts and other numbers swapped for cap-edge, huge or negative ones — yields `Ok` or `Err`, never a panic
//! or an allocation abort, and an accepted module stays inside the
//! declaration caps.

use barracuda_ptx::parser::{MAX_DECLARED_REGS, MAX_STATIC_SHARED_BYTES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const BASES: [&str; 2] = [
    r#".version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 buf, .param .u32 n)
{
    .reg .pred %p<2>;
    .reg .b32 %r<8>;
    .reg .b64 %rd<4>;
    .shared .align 4 .b8 sm[128];
    mov.u32 %r1, %tid.x;
    ld.param.u64 %rd1, [buf];
    ld.param.u32 %r2, [n];
    setp.ge.u32 %p1, %r1, %r2;
    @%p1 bra DONE;
    mul.wide.u32 %rd2, %r1, 4;
    add.s64 %rd3, %rd1, %rd2;
    st.shared.u32 [sm+4], %r1;
    bar.sync 0;
    ld.shared.u32 %r3, [sm+4];
    st.global.u32 [%rd3], %r3;
DONE:
    ret;
}
"#,
    r#".version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 buf)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    .shared .f32 acc[16];
    ld.param.u64 %rd1, [buf];
    atom.global.add.u32 %r1, [%rd1], 1;
    membar.gl;
    ld.global.cg.u32 %r2, [%rd1+8];
    st.global.u32 [%rd1+4], %r2;
    ret;
}
"#,
];

/// Bytes a mutation may write: PTX punctuation, digits and identifier
/// characters.
const ALPHABET: &[u8] = b"%<>[];.,{}()+-_@!: \n0123456789abcdeglprsuxy";

/// Numbers a mutation may substitute for a digit run: the caps' edges and
/// values far past them.
const NUMBERS: [&str; 10] = [
    "0",
    "-1",
    "49152",
    "49153",
    "65536",
    "65537",
    "4000000000",
    "2305843009213693952",
    "9223372036854775807",
    "99999999999999999999",
];

fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..rng.random_range(1..5) {
        let at = rng.random_range(0..b.len());
        match rng.random_range(0..6) {
            0 => b[at] = ALPHABET[rng.random_range(0..ALPHABET.len())],
            1 => {
                let end = (at + rng.random_range(1..8)).min(b.len());
                b.drain(at..end);
            }
            2 => {
                let end = (at + rng.random_range(1..32)).min(b.len());
                let span: Vec<u8> = b[at..end].to_vec();
                let to = rng.random_range(0..b.len() + 1);
                b.splice(to..to, span);
            }
            3 => {
                // Repeat the kernel, so the module declares its registers
                // several times over.
                if let Some(entry) = b.windows(8).position(|w| w == b".visible") {
                    let kernel = b[entry..].to_vec();
                    for _ in 0..rng.random_range(1..8) {
                        b.extend_from_slice(&kernel);
                    }
                }
            }
            4 => {
                // Swap a declared count (`%r<8>`, `sm[128]`) for a hostile
                // number.
                let counts: Vec<usize> = (1..b.len())
                    .filter(|&i| matches!(b[i - 1], b'<' | b'[') && b[i].is_ascii_digit())
                    .collect();
                if counts.is_empty() {
                    continue;
                }
                let start = counts[rng.random_range(0..counts.len())];
                swap_digits(&mut b, start, rng);
            }
            _ => {
                // Swap the digit run nearest `at` for a hostile number.
                let Some(start) = (at..b.len()).find(|&i| b[i].is_ascii_digit()) else {
                    continue;
                };
                swap_digits(&mut b, start, rng);
            }
        }
        if b.is_empty() {
            break;
        }
    }
    String::from_utf8(b).expect("mutations write ASCII only")
}

/// Replaces the digit run starting at `start` with one of [`NUMBERS`].
fn swap_digits(b: &mut Vec<u8>, start: usize, rng: &mut StdRng) {
    let end = (start..b.len())
        .find(|&i| !b[i].is_ascii_digit())
        .unwrap_or(b.len());
    let n = NUMBERS[rng.random_range(0..NUMBERS.len())];
    b.splice(start..end, n.bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn parse_is_total_on_mutated_kernels(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = mutate(BASES[rng.random_range(0..BASES.len())], &mut rng);
        if let Ok(m) = barracuda_ptx::parse(&text) {
            let regs: usize = m.kernels.iter().map(|k| k.regs.len()).sum();
            prop_assert!(regs <= MAX_DECLARED_REGS, "seed {}", seed);
            for k in &m.kernels {
                prop_assert!(k.shared_size() <= MAX_STATIC_SHARED_BYTES, "seed {}", seed);
            }
        }
    }
}
