//! Process CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, all threads.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick count") as f64;
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("VmHWM is reported in kB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_positive() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 80 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
