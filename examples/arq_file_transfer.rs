//! File transfer over three ARQ generations on a harsh wireless-like
//! channel: stop-and-wait (the paper's §3.4), Go-Back-N and Selective
//! Repeat — the "library of protocol functionality" §1.1 calls for.
//!
//! Run with: `cargo run --example arq_file_transfer`

use netdsl::netsim::LinkConfig;
use netdsl::protocols::{arq, gbn, sr, tftp};

fn main() {
    // A 16 KiB "file" chunked into 64-byte application messages.
    let file: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
    let messages: Vec<Vec<u8>> = file.chunks(64).map(<[u8]>::to_vec).collect();
    let n = messages.len();

    // A harsh channel: 15% loss, 5% corruption, duplication, jitter.
    let channel = LinkConfig::harsh(10);

    println!("transferring {n} messages over a harsh channel (loss 15%, corrupt 5%)\n");
    println!(
        "{:<18} {:>10} {:>10} {:>14}",
        "protocol", "ticks", "frames", "retransmits"
    );

    let sw = arq::session::run_transfer(messages.clone(), channel.clone(), 7, 200, 50, 100_000_000);
    assert!(sw.success, "stop-and-wait failed");
    println!(
        "{:<18} {:>10} {:>10} {:>14}",
        "stop-and-wait", sw.elapsed, sw.stats.frames_sent, sw.stats.retransmissions
    );

    let g = gbn::run_transfer(
        messages.clone(),
        8,
        channel.clone(),
        7,
        300,
        80,
        100_000_000,
    );
    assert!(g.success, "go-back-n failed");
    println!(
        "{:<18} {:>10} {:>10} {:>14}",
        "go-back-n (w=8)", g.elapsed, g.stats.frames_sent, g.stats.retransmissions
    );

    let s = sr::run_transfer(messages, 8, channel.clone(), 7, 300, 80, 100_000_000);
    assert!(s.success, "selective repeat failed");
    println!(
        "{:<18} {:>10} {:>10} {:>14}",
        "sel. repeat (w=8)", s.elapsed, s.stats.frames_sent, s.stats.retransmissions
    );

    // And the application layer: the same file through TFTP blocks.
    let t = tftp::send_file(&file, channel, 7, 300, 80, 100_000_000);
    assert!(t.success, "tftp failed");
    println!(
        "{:<18} {:>10} {:>10} {:>14}",
        "tftp (512B blocks)",
        t.elapsed,
        t.frames_sent,
        t.frames_sent - (file.len() as u64).div_ceil(512)
    );

    println!("\nall four delivered the file intact — windowed protocols fastest, as expected");
}
