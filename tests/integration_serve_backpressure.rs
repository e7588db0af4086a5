//! Backpressure and drain: a bursty session mix pushed through a tight
//! bounded queue must still land every request (reject-and-retry), and a
//! drain must resolve every queued request with no lost responses.

mod common;

use common::within_timeout;
use navft_nn::mlp;
use navft_serve::{drive_bursty_load, BurstyConfig, LatencyWindow, ServeConfig, Server, Ticket};
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

#[test]
fn drain_flushes_unevenly_filled_shards_with_no_lost_responses() {
    within_timeout(|| {
        let config = ServeConfig::default()
            .with_queue_capacity(16)
            .with_max_batch(64)
            .with_flush_after(Duration::from_secs(5));
        let server = Server::start(policy(), &[STATES], config);

        // Nine requests parked behind the 5 s flush deadline.
        let tickets: Vec<Ticket<f32>> = (0..9)
            .map(|i| {
                let session = server.open_clean_session();
                server.submit(session, obs(i as f32 * 0.05)).expect("submit")
            })
            .collect();
        assert_eq!(server.pending(), 9);

        // Shutdown must flush the partial batch and join the batcher
        // without hanging.
        server.shutdown();
        for ticket in tickets {
            assert!(ticket.wait().is_ok(), "drain lost a response");
        }
    });
}

#[test]
fn bursty_load_on_one_shard_completes_and_stays_on_that_shard() {
    within_timeout(|| {
        let config = ServeConfig::default()
            .with_queue_capacity(4)
            .with_max_batch(4)
            .with_flush_after(Duration::from_micros(100));
        let server = Server::start(policy(), &[STATES], config);
        let sessions: Vec<_> = (0..12).map(|_| server.open_clean_session()).collect();

        // A tight queue (4) under 12 bursty sessions forces Busy
        // rejections; the driver's reject-and-retry must still land every
        // request.
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
        assert_eq!(server.stats().rows, outcome.rows, "the server counted every served row");
        server.shutdown();
    });
}
