//! Pins Algorithm 1's output byte for byte.
//!
//! Each checksum covers `RepoRecord::encode` of a transformed plan's
//! repository snapshot: the term table in interning order, the id
//! triples in SPO order, the blank-node counter, the plan and its pruning
//! summary. Any change to term ids, triple order or the wire bytes a
//! transform produces moves a checksum, so "same ids, same bytes" across
//! a rewrite of `transform_qep` or of the graph store is checked here
//! rather than promised.

use optimatch_core::repo::snapshot;
use optimatch_core::transform::TransformedQep;
use optimatch_qep::{fixtures, Qep};
use optimatch_workload::{generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig};

/// 64-bit FNV-1a: small, dependency-free, and independent of the
/// repository's own CRC code.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The encoded snapshot record of one plan.
fn record_bytes(qep: Qep) -> Vec<u8> {
    let file = format!("{}.qep", qep.id);
    snapshot(&TransformedQep::new(qep), &file, Vec::new()).encode()
}

/// `(bytes, checksum)` over the concatenated records of `qeps`.
fn digest(qeps: impl IntoIterator<Item = Qep>) -> (usize, u64) {
    qeps.into_iter()
        .map(record_bytes)
        .fold((0, FNV_OFFSET), |(n, h), rec| {
            (n + rec.len(), fnv1a(&rec, h))
        })
}

#[test]
fn paper_figure_records_are_pinned() {
    let got = [
        ("fig1", digest([fixtures::fig1()])),
        ("fig7", digest([fixtures::fig7()])),
        ("fig8", digest([fixtures::fig8()])),
    ];
    let want = [
        ("fig1", (6191, 0x4d2b_640b_f6c1_b000)),
        ("fig7", (9308, 0x527b_e446_8453_8d3a)),
        ("fig8", (4054, 0x1963_7fa5_867e_96ac)),
    ];
    assert_eq!(got, want);
}

#[test]
fn generated_workload_records_are_pinned() {
    let workload = generate_workload(&WorkloadConfig {
        seed: 7,
        num_qeps: 50,
        generator: GeneratorConfig::default(),
        injection: InjectionConfig::paper_rates(),
    });
    assert_eq!(digest(workload.qeps), (2_913_094, 0x9bf5_fe61_0cd4_b5d9));
}
