//! The Merkle-tree user-space file system stand-in (Section 7.5, Figure 8):
//! a multi-threaded reader that maintains an integrity hash tree (public, so
//! ConfLLVM's checks protect it from being clobbered by private data) over a
//! private memory-mapped file.

use confllvm_core::{compile, vm_for, CompileOptions, Config};
use confllvm_vm::World;

use crate::WorkloadRun;

/// `read_file_blocks(blocks, block_size)` reads the private file block by
/// block, hashing each block through T (which declassifies the hash) into the
/// public hash tree, and returns the number of blocks read.
pub const SOURCE: &str = "
    extern int read_file_secret(char *name, private char *buf, int size);
    extern int hash_block(private char *data, int size, char *out);

    char hash_tree[8192];

    int read_file_blocks(int blocks, int block_size) {
        char block[4096];
        int b;
        int done = 0;
        for (b = 0; b < blocks; b = b + 1) {
            int n = read_file_secret(\"bigfile\", block, block_size);
            hash_block(block, block_size, hash_tree + (b % 1024) * 8);
            done = done + 1;
        }
        return done;
    }

    int main() { return read_file_blocks(4, 1024); }
";

/// World holding the (private) file contents.
pub fn world(block_size: usize) -> World {
    let mut w = World::new();
    let data: Vec<u8> = (0..block_size).map(|i| (i * 7 % 256) as u8).collect();
    w.add_secret_file("bigfile", &data);
    w
}

/// Run `threads` reader threads, each reading `blocks` blocks of
/// `block_size` bytes; returns the run plus the wall-clock cycles on a
/// 4-core machine.
pub fn run(config: Config, threads: usize, blocks: usize, block_size: usize) -> (WorkloadRun, u64) {
    let opts = CompileOptions {
        config,
        entry: "read_file_blocks".to_string(),
        ..Default::default()
    };
    let compiled = compile(SOURCE, &opts).expect("merkle workload compiles");
    let mut vm = vm_for(&compiled, world(block_size)).expect("load");
    let per_thread: Vec<Vec<i64>> = (0..threads)
        .map(|_| vec![blocks as i64, block_size as i64])
        .collect();
    let result = vm.run_threads("read_file_blocks", &per_thread);
    assert!(
        !result.outcome.is_fault(),
        "merkle workload faulted under {config}: {:?}",
        result.outcome
    );
    let wall = result.stats.wall_cycles(4);
    (
        WorkloadRun {
            config,
            result,
            world: vm.world,
        },
        wall,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_threads_complete_and_hashes_are_public_only() {
        let (run, _wall) = run(Config::OurSeg, 2, 4, 512);
        assert_eq!(run.exit_code(), Some(4));
        // Only hashes (8 bytes per block) were declassified; no raw file
        // bytes appear in the observable channels.
        let secret: Vec<u8> = (0..512).map(|i| (i * 7 % 256) as u8).collect();
        assert!(!run
            .world
            .observable()
            .windows(32)
            .any(|w| w == &secret[..32]));
    }

    #[test]
    fn wall_clock_grows_once_threads_exceed_cores() {
        let (_r4, wall4) = run(Config::Base, 4, 2, 256);
        let (_r5, wall5) = run(Config::Base, 5, 2, 256);
        assert!(
            wall5 > wall4,
            "5 threads on 4 cores must take longer than 4 threads"
        );
    }
}
