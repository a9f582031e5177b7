//! Robustness knobs for the release server: connection caps, deadlines,
//! admission-queue bounds, and per-tenant token-bucket rate limits.
//!
//! Every limit fails *clean*: a violated deadline is a 408, a blown cap
//! is a 503 with `Retry-After`, a drained token bucket is a 429
//! `rate_limited` — never a hung worker or a silently dropped byte.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Connection and admission limits (CLI flags map 1:1 onto these).
#[derive(Debug, Clone)]
pub struct Limits {
    /// Hard cap on concurrent connections; excess connects get an
    /// immediate 503 and are never queued. Each parked connection costs
    /// a few hundred bytes plus pooled buffers, so values in the
    /// thousands are practical.
    pub max_conns: usize,
    /// Bound on connections parked on the readiness poller awaiting
    /// events or deadlines; accepts beyond it shed with a 503.
    pub max_queue: usize,
    /// Shed a release when its estimated queue wait exceeds this.
    pub max_wait: Duration,
    /// A connection that has sent *part* of a request must complete it
    /// within this window or get a 408 (slowloris defense — covers slow
    /// headers and slow bodies alike).
    pub header_timeout: Duration,
    /// An idle keep-alive connection (no partial request pending) is
    /// reaped silently after this long.
    pub idle_timeout: Duration,
    /// Deadline for writing a response to a slow-reading client.
    pub write_timeout: Duration,
    /// Optional per-tenant request rate limit.
    pub rate_limit: Option<RateLimit>,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_conns: 1024,
            max_queue: 1024,
            max_wait: Duration::from_secs(2),
            header_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(2),
            rate_limit: None,
        }
    }
}

/// Token-bucket parameters: sustained `rps` with bursts up to `burst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    /// Sustained requests per second (tokens refill at this rate).
    pub rps: f64,
    /// Bucket capacity (max requests admitted back-to-back).
    pub burst: f64,
}

impl RateLimit {
    /// Parse `"RPS"` or `"RPS:BURST"` (burst defaults to `max(rps, 1)`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (rps_s, burst_s) = match s.split_once(':') {
            Some((r, b)) => (r, Some(b)),
            None => (s, None),
        };
        let rps: f64 = rps_s
            .parse()
            .map_err(|_| format!("bad rate limit {s:?} (want RPS or RPS:BURST)"))?;
        if !(rps.is_finite() && rps > 0.0) {
            return Err(format!("rate limit RPS must be positive, got {rps}"));
        }
        let burst = match burst_s {
            Some(b) => {
                let burst: f64 = b
                    .parse()
                    .map_err(|_| format!("bad rate limit burst {b:?}"))?;
                if !(burst.is_finite() && burst >= 1.0) {
                    return Err(format!("rate limit burst must be ≥ 1, got {burst}"));
                }
                burst
            }
            None => rps.max(1.0),
        };
        Ok(Self { rps, burst })
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Per-tenant token buckets. Buckets are created lazily (full) on a
/// tenant's first request, so hot-reloaded tenants need no registration.
pub struct RateLimiter {
    limit: RateLimit,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl RateLimiter {
    /// A limiter enforcing `limit` independently per tenant.
    pub fn new(limit: RateLimit) -> Self {
        Self {
            limit,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Try to admit one request for `tenant` at time `now`. On refusal,
    /// returns the seconds until a token will be available (the
    /// `Retry-After` value, rounded up by the caller).
    pub fn admit(&self, tenant: &str, now: Instant) -> Result<(), f64> {
        let mut buckets = self.buckets.lock().expect("rate limiter poisoned");
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.limit.burst,
            last: now,
        });
        let dt = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.limit.rps).min(self.limit.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err((1.0 - bucket.tokens) / self.limit.rps)
        }
    }

    /// Tenants holding a bucket.
    #[cfg(test)]
    pub(crate) fn buckets(&self) -> usize {
        self.buckets.lock().expect("rate limiter poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rate_limit_specs() {
        assert_eq!(
            RateLimit::parse("10").unwrap(),
            RateLimit {
                rps: 10.0,
                burst: 10.0
            }
        );
        assert_eq!(
            RateLimit::parse("2.5:40").unwrap(),
            RateLimit {
                rps: 2.5,
                burst: 40.0
            }
        );
        assert_eq!(
            RateLimit::parse("0.5").unwrap(),
            RateLimit {
                rps: 0.5,
                burst: 1.0
            },
            "burst floor is one full request"
        );
        for bad in ["", "fast", "-1", "0", "10:0.5", "10:x", "inf"] {
            assert!(RateLimit::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn bucket_drains_and_refills_per_tenant() {
        let rl = RateLimiter::new(RateLimit {
            rps: 10.0,
            burst: 2.0,
        });
        let t0 = Instant::now();
        rl.admit("a", t0).unwrap();
        rl.admit("a", t0).unwrap();
        let wait = rl.admit("a", t0).unwrap_err();
        assert!(
            wait > 0.0 && wait <= 0.1 + 1e-9,
            "one token at 10 rps: {wait}"
        );
        // A different tenant has its own full bucket.
        rl.admit("b", t0).unwrap();
        // 100 ms later one token has refilled.
        let t1 = t0 + Duration::from_millis(100);
        rl.admit("a", t1).unwrap();
        assert!(rl.admit("a", t1).is_err(), "only one token refilled");
        // Refill caps at burst even after a long idle stretch.
        let t2 = t1 + Duration::from_secs(60);
        rl.admit("a", t2).unwrap();
        rl.admit("a", t2).unwrap();
        assert!(rl.admit("a", t2).is_err());
    }
}
