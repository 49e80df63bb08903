//! Command line of the repository benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one JSON object as the last line of standard output and exits 0
//! when every answer was right; a wrong answer exits 1.
//!
//! The process pins itself to one CPU before it starts any thread. On a
//! 2-vCPU virtual machine whose host is oversubscribed, a wake-up that
//! crosses vCPUs waits for the host to schedule the halted vCPU: with the
//! client and the service worker free to migrate, `service_closed` p99
//! ranged from 0.1 ms to 3 ms between one-second windows of one run, while
//! pinned it stayed within a few percent. Pinned, every number measures the
//! program's own path, and a cross-core hand-off is not part of it.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::{run, Params, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

/// Restricts the calling thread, and every thread it starts later, to the
/// first CPU it may run on. Returns that CPU, or `None` where unsupported.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_to_one_cpu() -> Option<usize> {
    const SCHED_SETAFFINITY: usize = 203;
    const SCHED_GETAFFINITY: usize = 204;
    /// Raw three-argument Linux system call.
    ///
    /// # Safety
    ///
    /// The arguments must be valid for system call `nr`.
    unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        // SAFETY: the x86-64 Linux system-call convention; the kernel
        // clobbers only rcx and r11, declared here, and the caller
        // guarantees the arguments.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: pid 0 names the calling thread, and the kernel writes at
    // most `bytes` bytes into `mask`, which owns that many.
    let got = unsafe { syscall3(SCHED_GETAFFINITY, 0, bytes, mask.as_mut_ptr() as usize) };
    if got <= 0 {
        return None;
    }
    let cpu = (0..bytes * 8).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `bytes` bytes from `one`, which owns them.
    let set = unsafe { syscall3(SCHED_SETAFFINITY, 0, bytes, one.as_ptr() as usize) };
    (set == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return usage("--seconds takes a whole number from 1 to 600"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    if pin_to_one_cpu().is_none() {
        eprintln!("perfbench: could not pin to one CPU; numbers include cross-CPU wake-ups");
    }
    let params = Params {
        workload,
        seed,
        measure: Duration::from_secs(seconds),
        trace,
        scale: Scale::FULL,
    };
    let report = run(&params);
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
