//! Where a number was taken: the host block printed with every run, and
//! the process's own CPU time and peak memory from `/proc`.

use std::path::Path;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// User + system CPU seconds of this process so far, all threads (brick
/// handlers included). `None` where `/proc` is not Linux's.
pub fn cpu_seconds() -> Option<f64> {
    let stat = read("/proc/self/stat")?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks. Linux fixes
    // USER_HZ at 100 on every architecture.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The CPU's model name and how many CPUs are online. The launcher pins
/// the process to one of them, so `available_parallelism` reads 1.
fn cpus() -> (String, usize) {
    let info = read("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
    (
        model,
        info.lines().filter(|l| l.starts_with("processor")).count(),
    )
}

/// The commit of the enclosing checkout, read from `.git` without
/// running git. The driver's checkout is not a repository: "unknown".
fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host block as one JSON object. `samples` is the per-metric sample
/// count (ops, passes or cycles behind each reported median/percentile).
pub fn host_json(
    repo_root: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    segments: usize,
    samples: &[(&str, u64)],
) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    let kernel = read("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let (cpu_model, cpus_online) = cpus();
    let counts: Vec<String> = samples
        .iter()
        .map(|(name, n)| format!("{}:{n}", json_str(name)))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"segments\":{segments},\
         \"available_parallelism\":{parallelism},\"cpus_online\":{cpus_online},\"cpu_model\":{},\"kernel\":{},\
         \"gf256_kernel_tier\":{},\"git_commit\":{},\"samples\":{{{}}}}}",
        json_str(workload),
        json_str(&cpu_model),
        json_str(&kernel),
        json_str(nsr_erasure::gf256::kernel_tier()),
        json_str(&git_commit(repo_root)),
        counts.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        let cpu = cpu_seconds().expect("linux /proc");
        assert!((0.0..1e6).contains(&cpu));
        let rss = peak_rss_mib().expect("VmHWM");
        assert!(rss > 0.1 && rss < 1e6, "rss {rss}");
    }

    #[test]
    fn host_block_is_json() {
        let text = host_json(
            Path::new("/nonexistent"),
            "serve_small",
            42,
            1.0,
            20,
            &[("ops_per_s", 10)],
        );
        let doc = nsr_obs::Json::parse(&text).expect("parses");
        assert_eq!(
            doc.get("git_commit").and_then(nsr_obs::Json::as_str),
            Some("unknown")
        );
        assert!(doc
            .get("samples")
            .and_then(|s| s.get("ops_per_s"))
            .is_some());
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
