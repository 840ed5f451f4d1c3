//! Compiled output is a contract.  Every workload source and a few generated
//! services, under every paper configuration, must encode to exactly the
//! binaries recorded here.  Each digest is FNV-1a over the encoded code
//! words, the entry word, the function symbol table and the magic prefixes,
//! so a change to the IR passes, instruction selection, the machine passes,
//! linking or encoding that alters one emitted bit fails this test.
//!
//! A compile error is part of the contract too: its message is digested in
//! place of the binary.  On a mismatch the assertion prints the whole table
//! as computed, in the layout of `EXPECTED`; paste it only for a change that
//! is meant to alter compiled output.

use confllvm_bench::verify_scale::synthetic_service;
use confllvm_core::{compile, CompileOptions, Config};
use confllvm_workloads::{ldap, merkle, nginx, privado, spec};

/// `(workers, salt)` of the generated services covered.
const SYNTHETIC: [(usize, u64); 4] = [(0, 7), (3, 1), (17, 424_242), (60, 99_991)];

/// Per source, one digest for each configuration of `Config::ALL`, in order.
#[rustfmt::skip]
const EXPECTED: &[(&str, [u64; 8])] = &[
    ("bzip2", [0xe0653ccb832cb69b, 0xe0653ccb832cb69b, 0xe0653ccb832cb69b, 0x8cb2c8ae33105480, 0x1f544b96d095e3ca, 0x274e3aac2ae926ad, 0x274e3aac2ae926ad, 0x9e9ad19be93cc62d]),
    ("gcc", [0x4e3cdb95d8d9ac3c, 0x4e3cdb95d8d9ac3c, 0x4e3cdb95d8d9ac3c, 0xf11bb8af451d4249, 0x6b190b9bd141823b, 0xaec5a2d3c997a461, 0xaec5a2d3c997a461, 0x79c6aa5541179d33]),
    ("mcf", [0xf1db246b922c1f6f, 0xf1db246b922c1f6f, 0xf1db246b922c1f6f, 0x04660fdbbd7c4ffc, 0xf0fb3deb233f603d, 0x5cc4d14b4a63b485, 0x5cc4d14b4a63b485, 0x80a693b623495a4e]),
    ("gobmk", [0x916e6493b0c1e814, 0x916e6493b0c1e814, 0x916e6493b0c1e814, 0x041d16fcade6b65c, 0x85e8291c8e1844fc, 0xaa7176c81dd3b7fa, 0xaa7176c81dd3b7fa, 0x4e3a9071f4fe841d]),
    ("hmmer", [0xd713b55b13e4036d, 0xd713b55b13e4036d, 0xd713b55b13e4036d, 0xbfa4275873b3e53e, 0x565862fa7d03b2be, 0x3ae4b648f453db2b, 0x3ae4b648f453db2b, 0x1584b45a84b338c2]),
    ("sjeng", [0xe2835dc71195cb64, 0xe2835dc71195cb64, 0xe2835dc71195cb64, 0xf11f2604795c4003, 0x63b33ace5c89a3af, 0x2af5a9ad595e9e07, 0x2af5a9ad595e9e07, 0xe941e7a5d5a7047b]),
    ("libquantum", [0x42ece7eb9ab714ec, 0x42ece7eb9ab714ec, 0x42ece7eb9ab714ec, 0xefcfe2de592feb91, 0x61060038ae5fb9b3, 0xc0b11bcaac9d195a, 0xc0b11bcaac9d195a, 0xb3e865536feb4e23]),
    ("h264ref", [0xdd6c833354dca7d0, 0xdd6c833354dca7d0, 0xdd6c833354dca7d0, 0xbd75348cedf09afa, 0xbaae7dd585c5d2ee, 0x3225dae2989c1f12, 0x3225dae2989c1f12, 0xe93a36d0d6da1396]),
    ("milc", [0xe8d45022ef7ac9d5, 0xe8d45022ef7ac9d5, 0xe8d45022ef7ac9d5, 0xf47fbf40bb555f3a, 0x09e5cfeb85a23c0b, 0xfb062a36d0627b29, 0xfb062a36d0627b29, 0x2d397d42916531cb]),
    ("nginx", [0xf237a777a896c1d5, 0xf237a777a896c1d5, 0xf237a777a896c1d5, 0x37fea05ee1a39741, 0x4dca936fc5afe6db, 0x2aebbe7ada0fbc99, 0x92104a495296fb39, 0xacffb9bd93c7ab6a]),
    ("ldap", [0x83a671a0901aeb3e, 0x83a671a0901aeb3e, 0x83a671a0901aeb3e, 0x8f31a36158a89836, 0x0eb92891360ae2fa, 0x90aff2c8d9378234, 0xe58d235124c333b4, 0x17f98e0ad843008e]),
    ("privado", [0xccea4a8817450e84, 0xccea4a8817450e84, 0xccea4a8817450e84, 0xc7c18d2784fcfbbf, 0x584e3216f8164dab, 0xfa9becf463c50585, 0xdad8fa06bf35d195, 0x6e34e01c37cb0277]),
    ("merkle", [0xd060f70a472bfea7, 0xd060f70a472bfea7, 0xd060f70a472bfea7, 0xf26ddb787aabd612, 0xeecf26f8a9a42342, 0x943e59fdc6014c02, 0x0cf2c1408dc54382, 0xd207614fcbae471a]),
    ("synthetic.w0.s7", [0x51873f8803664dce, 0x51873f8803664dce, 0x51873f8803664dce, 0x586e02c2d777417e, 0xc2517801e56abf84, 0x50eecf8054205294, 0xf0e96fe6544b5c54, 0x8b8bc1cb40f7cee6]),
    ("synthetic.w3.s1", [0x811a78f4c56901b8, 0x811a78f4c56901b8, 0x811a78f4c56901b8, 0x7b1be15c43c541c7, 0x23b39d2e7a911788, 0xae5fa958d8b41c0e, 0xca96ac2087e863ee, 0x14a88032a6d88f59]),
    ("synthetic.w17.s424242", [0xf77d9ad535323ecf, 0xf77d9ad535323ecf, 0xf77d9ad535323ecf, 0x90ba5466b8f88749, 0x275146fbee941007, 0xf6593b4553489eec, 0x43483b8d59fa32ac, 0x07c991e1729b6f90]),
    ("synthetic.w60.s99991", [0xaa7d39dc8942f221, 0xaa7d39dc8942f221, 0xaa7d39dc8942f221, 0xdf127421e8e99fc6, 0xbd84a86d345c5a92, 0xb5dd01c716c6eda3, 0xdf153fbb9eef7443, 0xe7cc962981ea589c]),
];

/// FNV-1a 64-bit over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(source: &str, entry: &str, config: Config) -> u64 {
    let opts = CompileOptions {
        config,
        entry: entry.to_string(),
        ..Default::default()
    };
    let mut h = Fnv::new();
    match compile(source, &opts) {
        Err(e) => {
            h.bytes(b"error:");
            h.bytes(e.to_string().as_bytes());
        }
        Ok(compiled) => {
            let binary = compiled.binary();
            h.u64(binary.words.len() as u64);
            for &w in &binary.words {
                h.u64(w);
            }
            let header = &binary.header;
            h.u64(header.entry_word as u64);
            h.u64(header.functions.len() as u64);
            for f in &header.functions {
                h.u64(f.name.len() as u64);
                h.bytes(f.name.as_bytes());
                h.u64(f.magic_word.map_or(u64::MAX, u64::from));
                h.u64(f.entry_word as u64);
                for t in f.arg_taints.iter().chain([&f.ret_taint]) {
                    h.u64(*t as u64);
                }
            }
            h.u64(header.prefixes.call_prefix);
            h.u64(header.prefixes.ret_prefix);
        }
    }
    h.0
}

/// Every covered source as `(name, text, entry)`.
fn sources() -> Vec<(String, String, &'static str)> {
    let mut out: Vec<(String, String, &'static str)> = spec::KERNELS
        .iter()
        .map(|k| (k.name.to_string(), k.source.to_string(), "run"))
        .collect();
    out.push(("nginx".into(), nginx::SOURCE.into(), "main"));
    out.push(("ldap".into(), ldap::annotated_source(), "main"));
    out.push(("privado".into(), privado::SOURCE.into(), "main"));
    out.push(("merkle".into(), merkle::SOURCE.into(), "main"));
    for (workers, salt) in SYNTHETIC {
        out.push((
            format!("synthetic.w{workers}.s{salt}"),
            synthetic_service(workers, salt),
            "main",
        ));
    }
    out
}

#[test]
fn compiled_output_matches_recorded_digests() {
    let actual: Vec<(String, [u64; 8])> = sources()
        .into_iter()
        .map(|(name, text, entry)| {
            let row = Config::ALL.map(|config| digest(&text, entry, config));
            (name, row)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, row)| {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    let expected: Vec<(String, [u64; 8])> = EXPECTED
        .iter()
        .map(|(name, row)| (name.to_string(), *row))
        .collect();
    assert!(
        actual == expected,
        "compiled output changed; digests as computed now:\n{table}"
    );
}
