//! Process accounting read from `/proc`: resident memory of the benchmark
//! and its worker processes, and worker processes left over after a run.

use std::path::Path;

/// Memory the system under test holds: this process's growth since the
/// probe started, plus its worker processes. It is read when the replay
/// reaches a fixed click, or at the end of a replay that stops sooner, so
/// the figure does not depend on how far a run got in its time.
pub struct MemoryProbe {
    baseline: u64,
    at_click: usize,
    read: Option<u64>,
}

impl MemoryProbe {
    /// Start just before the system is built. The allocator first returns
    /// its free pages to the system, so that the new system grows this
    /// process by what it holds rather than refilling memory freed before.
    pub fn start(at_click: usize) -> MemoryProbe {
        trim_heap();
        MemoryProbe { baseline: own_resident_bytes(), at_click, read: None }
    }

    /// Called before each click of the replay.
    pub fn click(&mut self, click: usize) {
        if click == self.at_click {
            self.read = Some(self.now());
        }
    }

    /// Bytes held at the fixed click, or now if the replay stopped sooner.
    pub fn bytes(&self) -> u64 {
        self.read.unwrap_or_else(|| self.now())
    }

    fn now(&self) -> u64 {
        own_resident_bytes().saturating_sub(self.baseline) + children_resident_bytes()
    }
}

fn own_resident_bytes() -> u64 {
    resident_bytes(std::process::id()).unwrap_or(0)
}

/// Resident memory, in bytes, of this process's direct children (the
/// cluster spawns every computation-tree node from this process).
fn children_resident_bytes() -> u64 {
    let me = std::process::id();
    pids().into_iter().filter(|&pid| parent_of(pid) == Some(me)).filter_map(resident_bytes).sum()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists under its own locks, and is safe to call
    // at any time from any thread; Rust's default allocator is glibc malloc
    // on this target.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Live processes running the executable at `exe`.
pub fn running(exe: &Path) -> Vec<u32> {
    let Ok(exe) = exe.canonicalize() else { return Vec::new() };
    pids()
        .into_iter()
        .filter(|&pid| std::fs::read_link(format!("/proc/{pid}/exe")).is_ok_and(|p| p == exe))
        .collect()
}

fn pids() -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    entries.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok()).collect()
}

fn resident_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn parent_of(pid: u32) -> Option<u32> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesized and may hold spaces: fields
    // resume after the last `)`, with state first and the parent second.
    stat.rsplit_once(')')?.1.split_whitespace().nth(1)?.parse().ok()
}
