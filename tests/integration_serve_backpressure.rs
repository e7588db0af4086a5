//! Backpressure and drain under shard skew: a session mix that lands every
//! request on **one** shard must still respect that shard's bounded queue
//! (reject-and-retry), must leave the other shards' queues usable, and a
//! drain must join all N workers with no lost responses.
//!
//! Shards are independent service domains — skew on one cannot consume
//! another's capacity, and shutdown must flush every shard's pending
//! requests regardless of how unevenly they filled.

use navft_nn::mlp;
use navft_serve::{
    drive_bursty_load, BurstyConfig, LatencyWindow, ServeConfig, ServeError, Server, SessionId,
    Ticket,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

const STATES: usize = 6;

fn policy() -> navft_nn::Network {
    mlp(&[STATES, 16, 4], &mut SmallRng::seed_from_u64(0xBEEF))
}

fn obs(v: f32) -> navft_nn::Tensor {
    navft_nn::Tensor::full(&[STATES], v)
}

/// Opens sessions until `count` of them sit on `shard`, closing the ones
/// that hash elsewhere — the adversarial all-one-shard traffic mix.
fn sessions_on_shard<W>(server: &Server<W>, shard: usize, count: usize) -> Vec<SessionId>
where
    W: navft_rl::EvalElement,
{
    let mut pinned = Vec::with_capacity(count);
    let mut opened = 0usize;
    while pinned.len() < count {
        let session = server.open_clean_session();
        if server.session_shard(session) == shard {
            pinned.push(session);
        } else {
            server.close_session(session).expect("close off-target session");
        }
        opened += 1;
        assert!(opened < 10_000, "shard {shard} never filled — hash must cover every shard");
    }
    pinned
}

#[test]
fn skewed_traffic_respects_the_hot_shards_bounded_queue_alone() {
    let config = ServeConfig::default()
        .with_workers(4)
        .with_queue_capacity(2)
        .with_max_batch(64)
        .with_flush_after(Duration::from_secs(5));
    let server = Server::start(policy(), &[STATES], config);

    // Three sessions pinned to shard 0, one on each other shard.
    let hot = sessions_on_shard(&server, 0, 3);
    let cold: Vec<SessionId> =
        (1..4).map(|shard| sessions_on_shard(&server, shard, 1)[0]).collect();

    // The hot shard accepts up to its own queue bound, then rejects with
    // Busy and hands the observation back.
    let t0 = server.submit(hot[0], obs(0.1)).expect("first fits");
    let t1 = server.submit(hot[1], obs(0.2)).expect("second fits");
    let (err, returned) = server.submit(hot[2], obs(0.3)).expect_err("hot shard full");
    assert_eq!(err, ServeError::Busy);
    assert_eq!(returned.data(), obs(0.3).data(), "rejected input is handed back for retry");
    assert_eq!(server.stats().rejected, 1);

    // Skew on shard 0 consumed none of the other shards' capacity: every
    // cold shard still accepts.
    let cold_tickets: Vec<Ticket<f32>> = cold
        .iter()
        .enumerate()
        .map(|(i, &s)| server.submit(s, obs(0.5 + i as f32 * 0.1)).expect("cold shard accepts"))
        .collect();

    // Drain joins all four workers; every accepted request resolves.
    server.shutdown();
    assert!(t0.wait().is_ok());
    assert!(t1.wait().is_ok());
    for ticket in cold_tickets {
        assert!(ticket.wait().is_ok(), "no cold-shard response lost in drain");
    }
}

#[test]
fn drain_flushes_unevenly_filled_shards_with_no_lost_responses() {
    let config = ServeConfig::default()
        .with_workers(4)
        .with_queue_capacity(16)
        .with_max_batch(64)
        .with_flush_after(Duration::from_secs(5));
    let server = Server::start(policy(), &[STATES], config);

    // Heavy skew: 8 pending on shard 2, a single request on shard 0, the
    // other shards idle — all parked behind the 5 s flush deadline.
    let hot = sessions_on_shard(&server, 2, 8);
    let lone = sessions_on_shard(&server, 0, 1)[0];
    let mut tickets: Vec<Ticket<f32>> = hot
        .iter()
        .enumerate()
        .map(|(i, &s)| server.submit(s, obs(i as f32 * 0.05)).expect("hot submit"))
        .collect();
    tickets.push(server.submit(lone, obs(0.9)).expect("lone submit"));
    assert_eq!(server.pending(), 9);

    // Shutdown must flush both non-empty shards and join the two idle
    // workers without hanging.
    server.shutdown();
    for ticket in tickets {
        assert!(ticket.wait().is_ok(), "drain lost a response");
    }
}

#[test]
fn bursty_load_on_one_shard_completes_and_stays_on_that_shard() {
    let config = ServeConfig::default()
        .with_workers(4)
        .with_queue_capacity(4)
        .with_max_batch(4)
        .with_flush_after(Duration::from_micros(100));
    let server = Server::start(policy(), &[STATES], config);
    let shard = 1;
    let sessions = sessions_on_shard(&server, shard, 12);

    // A tight queue (4) under 12 bursty sessions forces Busy rejections;
    // the driver's reject-and-retry must still land every request.
    let bursty = BurstyConfig {
        requests_per_session: 6,
        mean_think: Duration::from_micros(50),
        spike_factor: 8.0,
        seed: 42,
    };
    let mut latency = LatencyWindow::new();
    let outcome = drive_bursty_load(&server, &sessions, STATES, &bursty, &mut latency);
    assert_eq!(outcome.rows, 12 * 6, "every scheduled request served despite backpressure");
    assert_eq!(latency.len(), outcome.rows);

    let per_shard = server.shard_rows();
    for (s, &rows) in per_shard.iter().enumerate() {
        if s == shard {
            assert_eq!(rows, outcome.rows, "all traffic stayed on the pinned shard");
        } else {
            assert_eq!(rows, 0, "shard {s} must have served nothing");
        }
    }
    server.shutdown();
}
