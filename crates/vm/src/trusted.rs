//! The trusted library T.
//!
//! T is the small, trusted part of every application: I/O, cryptography, the
//! custom allocator, and the application's declassifiers (Section 2).  In the
//! reproduction T is implemented natively in Rust (it would be compiled by a
//! vanilla compiler in the paper); what matters for fidelity is the *wrapper*
//! behaviour of Section 6: every call from U goes through a wrapper that
//! validates pointer arguments against U's memory regions, switches stacks
//! (accounted by the cost model in the CPU), and only then runs the body.

use std::sync::Arc;

use confllvm_machine::{MemoryLayout, Scheme, Taint};

use crate::alloc::Heap;
use crate::memory::Memory;
use crate::world::World;

/// A failed wrapper check or an error inside a T function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustedError {
    pub func: String,
    pub reason: String,
}

impl std::fmt::Display for TrustedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trusted wrapper `{}` rejected the call: {}",
            self.func, self.reason
        )
    }
}

impl std::error::Error for TrustedError {}

/// Everything a T function may touch.
pub struct TrustedCtx<'a> {
    pub memory: &'a mut Memory,
    pub world: &'a mut World,
    pub layout: &'a MemoryLayout,
    pub pub_heap: &'a mut Heap,
    pub priv_heap: &'a mut Heap,
    /// Enforce strict region checks (only when the program was built with a
    /// real partitioning scheme; baseline builds have a single region).
    pub strict_regions: bool,
}

/// Result of one T call: the return value plus the number of bytes the
/// wrapper copied across the U/T boundary (used by the cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrustedResult {
    pub ret: i64,
    pub bytes_copied: u64,
}

fn ok(ret: i64, bytes: u64) -> Result<TrustedResult, TrustedError> {
    Ok(TrustedResult {
        ret,
        bytes_copied: bytes,
    })
}

impl<'a> TrustedCtx<'a> {
    fn err(&self, func: &str, reason: impl Into<String>) -> TrustedError {
        TrustedError {
            func: func.to_string(),
            reason: reason.into(),
        }
    }

    /// The wrapper's range check: the buffer must lie entirely inside the
    /// region U's declared taint says it should (e.g. `read_passwd` checks
    /// that `[pass, pass+size)` falls inside U's private region — Section 2).
    pub fn check_buffer(
        &self,
        func: &str,
        addr: u64,
        len: u64,
        taint: Taint,
    ) -> Result<(), TrustedError> {
        let len = len.max(1);
        if !self.strict_regions {
            // Single-region baselines: only require the buffer to be inside
            // U's memory at all (never inside T's).
            if self.layout.in_public(addr, len) || self.layout.in_private(addr, len) {
                return Ok(());
            }
            return Err(self.err(func, format!("buffer {addr:#x}+{len} outside U memory")));
        }
        let ok = match taint {
            Taint::Public => self.layout.in_public(addr, len),
            Taint::Private => self.layout.in_private_window(addr, len),
        };
        if ok {
            Ok(())
        } else {
            Err(self.err(
                func,
                format!(
                    "buffer {addr:#x}+{len} is not inside U's {} region",
                    taint.name()
                ),
            ))
        }
    }

    fn read_buf(
        &mut self,
        func: &str,
        addr: u64,
        len: u64,
        taint: Taint,
    ) -> Result<Vec<u8>, TrustedError> {
        self.check_buffer(func, addr, len, taint)?;
        self.memory
            .read_bytes(addr, len)
            .map_err(|e| self.err(func, e.to_string()))
    }

    fn write_buf(
        &mut self,
        func: &str,
        addr: u64,
        data: &[u8],
        taint: Taint,
    ) -> Result<(), TrustedError> {
        self.check_buffer(func, addr, data.len() as u64, taint)?;
        self.memory
            .write_bytes(addr, data)
            .map_err(|e| self.err(func, e.to_string()))
    }

    fn read_name(&mut self, func: &str, addr: u64) -> Result<String, TrustedError> {
        self.check_buffer(func, addr, 1, Taint::Public)?;
        let bytes = self
            .memory
            .read_cstring(addr, 256)
            .map_err(|e| self.err(func, e.to_string()))?;
        Ok(String::from_utf8_lossy(&bytes).to_string())
    }
}

/// Dispatch one call from U into T.  `args` are the four argument-register
/// values.
pub fn call(
    ctx: &mut TrustedCtx<'_>,
    name: &str,
    args: [i64; 4],
) -> Result<TrustedResult, TrustedError> {
    let a = |i: usize| args[i] as u64;
    match name {
        // ----- network ----------------------------------------------------
        "recv" => {
            let buf = a(1);
            let size = a(2);
            ctx.world.reads += 1;
            let msg = ctx.world.network_in.pop_front().unwrap_or_default();
            let n = msg.len().min(size as usize);
            ctx.write_buf("recv", buf, &msg[..n], Taint::Public)?;
            ok(n as i64, n as u64)
        }
        "send" => {
            let buf = a(1);
            let size = a(2);
            let data = ctx.read_buf("send", buf, size, Taint::Public)?;
            ctx.world.sent.extend_from_slice(&data);
            ok(size as i64, size)
        }
        // ----- files ------------------------------------------------------
        "read_file" => {
            let fname = ctx.read_name("read_file", a(0))?;
            let buf = a(1);
            let size = a(2);
            ctx.world.reads += 1;
            // A handle on the shared table, so the bytes are borrowed, not
            // copied, while the wrapper writes them into U's memory.
            let files = Arc::clone(&ctx.world.files);
            let contents = files.get(&fname).map_or(&[][..], Vec::as_slice);
            let n = contents.len().min(size as usize);
            ctx.write_buf("read_file", buf, &contents[..n], Taint::Public)?;
            ok(n as i64, n as u64)
        }
        "read_file_secret" => {
            let fname = ctx.read_name("read_file_secret", a(0))?;
            let buf = a(1);
            let size = a(2);
            ctx.world.reads += 1;
            let files = Arc::clone(&ctx.world.secret_files);
            let contents = files.get(&fname).map_or(&[][..], Vec::as_slice);
            let n = contents.len().min(size as usize);
            ctx.write_buf("read_file_secret", buf, &contents[..n], Taint::Private)?;
            ok(n as i64, n as u64)
        }
        // ----- passwords and crypto ---------------------------------------
        "read_passwd" => {
            let uname = ctx.read_name("read_passwd", a(0))?;
            let buf = a(1);
            let size = a(2);
            ctx.world.reads += 1;
            let passwords = Arc::clone(&ctx.world.passwords);
            let pw = passwords
                .get(&uname)
                .map_or(&b"default-password"[..], Vec::as_slice);
            let n = pw.len().min(size as usize);
            ctx.write_buf("read_passwd", buf, &pw[..n], Taint::Private)?;
            ok(n as i64, n as u64)
        }
        "decrypt" => {
            // decrypt(src: public ciphertext, dst: private plaintext, size)
            let src = a(0);
            let dst = a(1);
            let size = a(2);
            let data = ctx.read_buf("decrypt", src, size, Taint::Public)?;
            let plain = ctx.world.xor_crypt(&data);
            ctx.write_buf("decrypt", dst, &plain, Taint::Private)?;
            ok(size as i64, 2 * size)
        }
        "encrypt" | "encrypt_log" => {
            // encrypt(src: private plaintext, dst: public ciphertext, size) —
            // the declassification path.
            let src = a(0);
            let dst = a(1);
            let size = a(2);
            let data = ctx.read_buf(name, src, size, Taint::Private)?;
            let cipher = ctx.world.xor_crypt(&data);
            ctx.write_buf(name, dst, &cipher, Taint::Public)?;
            ok(size as i64, 2 * size)
        }
        // ----- declassifiers ------------------------------------------------
        "declassify_result" => {
            // Privado-style declassifier: a single private value leaves the
            // enclave after the (trusted) declassification decision.
            let value = args[0];
            ctx.world.declassified.push(value);
            ctx.world.sent.extend_from_slice(&value.to_le_bytes());
            ok(0, 8)
        }
        "hash_block" => {
            // Merkle-tree helper: hash a private block, declassify the hash
            // into a public output slot (Section 7.5).
            let data = a(0);
            let size = a(1);
            let out = a(2);
            let bytes = ctx.read_buf("hash_block", data, size, Taint::Private)?;
            let mut h: u64 = 0xcbf29ce484222325;
            for b in &bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            ctx.write_buf("hash_block", out, &h.to_le_bytes(), Taint::Public)?;
            ok(h as i64, size + 8)
        }
        // ----- logging ------------------------------------------------------
        "log_write" => {
            let buf = a(0);
            let size = a(1);
            let data = ctx.read_buf("log_write", buf, size, Taint::Public)?;
            ctx.world.log.extend_from_slice(&data);
            ok(size as i64, size)
        }
        // ----- allocator ----------------------------------------------------
        "malloc_pub" => {
            let size = a(0);
            match ctx.pub_heap.alloc(size) {
                Ok(addr) => ok(addr as i64, 0),
                Err(_) => Err(ctx.err("malloc_pub", "out of public heap")),
            }
        }
        "malloc_priv" => {
            let size = a(0);
            match ctx.priv_heap.alloc(size) {
                Ok(addr) => ok(addr as i64, 0),
                Err(_) => Err(ctx.err("malloc_priv", "out of private heap")),
            }
        }
        "free_pub" => {
            ctx.pub_heap.free(a(0), a(1));
            ok(0, 0)
        }
        "free_priv" => {
            ctx.priv_heap.free(a(0), a(1));
            ok(0, 0)
        }
        // ----- misc ----------------------------------------------------------
        "rng_next" => {
            ctx.world.reads += 1;
            ok(ctx.world.next_rand(), 0)
        }
        "get_time" => {
            ctx.world.reads += 1;
            ctx.world.time += 1;
            ok(ctx.world.time, 0)
        }
        "debug_print" => {
            // Prints an integer to the log (public channel), useful when
            // debugging workloads.
            let v = args[0];
            ctx.world.log.extend_from_slice(format!("{v}\n").as_bytes());
            ok(0, 0)
        }
        other => Err(TrustedError {
            func: other.to_string(),
            reason: "unknown trusted function".to_string(),
        }),
    }
}

/// Helper used by the CPU: should this program enforce strict region checks
/// in the wrappers?
pub fn strict_for_scheme(scheme: Scheme) -> bool {
    scheme != Scheme::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocatorKind;

    fn setup() -> (Memory, World, MemoryLayout, Heap, Heap) {
        let layout = MemoryLayout::new(Scheme::Mpx, true, true);
        let mut memory = Memory::new();
        memory.map_range(layout.public_base, layout.public_size);
        memory.map_range(layout.private_base, layout.private_size);
        let pub_heap = Heap::new(AllocatorKind::ConfBins, layout.public_heap_base(), 1 << 20);
        let priv_heap = Heap::new(AllocatorKind::ConfBins, layout.private_heap_base(), 1 << 20);
        (memory, World::new(), layout, pub_heap, priv_heap)
    }

    fn ctx<'a>(
        memory: &'a mut Memory,
        world: &'a mut World,
        layout: &'a MemoryLayout,
        pub_heap: &'a mut Heap,
        priv_heap: &'a mut Heap,
    ) -> TrustedCtx<'a> {
        TrustedCtx {
            memory,
            world,
            layout,
            pub_heap,
            priv_heap,
            strict_regions: true,
        }
    }

    #[test]
    fn send_requires_public_buffer() {
        let (mut m, mut w, l, mut hp, mut hv) = setup();
        let pub_buf = l.public_heap_base();
        let priv_buf = l.private_heap_base();
        m.write_bytes(pub_buf, b"hello").unwrap();
        m.write_bytes(priv_buf, b"secret").unwrap();
        {
            let mut c = ctx(&mut m, &mut w, &l, &mut hp, &mut hv);
            assert!(call(&mut c, "send", [1, pub_buf as i64, 5, 0]).is_ok());
            // Sending a private buffer must be rejected by the wrapper.
            let err = call(&mut c, "send", [1, priv_buf as i64, 6, 0]).unwrap_err();
            assert!(err.reason.contains("public"));
        }
        assert_eq!(w.sent, b"hello");
    }

    #[test]
    fn read_passwd_fills_private_buffer_only() {
        let (mut m, mut w, l, mut hp, mut hv) = setup();
        w.set_password("alice", b"hunter2");
        let uname = l.public_heap_base();
        m.write_bytes(uname, b"alice\0").unwrap();
        let priv_buf = l.private_heap_base();
        let pub_buf = l.public_heap_base() + 256;
        {
            let mut c = ctx(&mut m, &mut w, &l, &mut hp, &mut hv);
            assert!(call(
                &mut c,
                "read_passwd",
                [uname as i64, priv_buf as i64, 32, 0]
            )
            .is_ok());
            assert!(call(&mut c, "read_passwd", [uname as i64, pub_buf as i64, 32, 0]).is_err());
        }
        assert_eq!(m.read_bytes(priv_buf, 7).unwrap(), b"hunter2");
    }

    #[test]
    fn encrypt_declassifies_into_public_region() {
        let (mut m, mut w, l, mut hp, mut hv) = setup();
        let priv_buf = l.private_heap_base();
        let pub_buf = l.public_heap_base();
        m.write_bytes(priv_buf, b"topsecret").unwrap();
        {
            let mut c = ctx(&mut m, &mut w, &l, &mut hp, &mut hv);
            call(&mut c, "encrypt", [priv_buf as i64, pub_buf as i64, 9, 0]).unwrap();
        }
        let out = m.read_bytes(pub_buf, 9).unwrap();
        assert_ne!(out, b"topsecret", "ciphertext must differ from plaintext");
        assert_eq!(w.xor_crypt(&out), b"topsecret");
    }

    #[test]
    fn allocators_serve_their_regions() {
        let (mut m, mut w, l, mut hp, mut hv) = setup();
        let mut c = ctx(&mut m, &mut w, &l, &mut hp, &mut hv);
        let p = call(&mut c, "malloc_pub", [64, 0, 0, 0]).unwrap().ret as u64;
        let q = call(&mut c, "malloc_priv", [64, 0, 0, 0]).unwrap().ret as u64;
        assert!(l.in_public(p, 64));
        assert!(l.in_private(q, 64));
    }

    #[test]
    fn unknown_function_is_rejected() {
        let (mut m, mut w, l, mut hp, mut hv) = setup();
        let mut c = ctx(&mut m, &mut w, &l, &mut hp, &mut hv);
        assert!(call(&mut c, "launch_missiles", [0; 4]).is_err());
    }

    #[test]
    fn non_strict_mode_accepts_any_u_buffer() {
        let (mut m, mut w, l, mut hp, mut hv) = setup();
        let priv_buf = l.private_heap_base();
        m.write_bytes(priv_buf, b"xx").unwrap();
        let mut c = TrustedCtx {
            memory: &mut m,
            world: &mut w,
            layout: &l,
            pub_heap: &mut hp,
            priv_heap: &mut hv,
            strict_regions: false,
        };
        // In a single-region baseline build the same call succeeds: there is
        // no private region to protect.
        assert!(call(&mut c, "send", [1, priv_buf as i64, 2, 0]).is_ok());
        // But T's own memory is still off limits.
        assert!(call(&mut c, "send", [1, l.trusted_heap_base() as i64, 2, 0]).is_err());
    }
}
