//! The daemon's dispatch loop, minus sockets: applies a protocol
//! [`Command`] to a [`Memcached`] store and produces the [`Response`] the
//! real daemon would write back. The simulated MCD nodes in `imca-core`
//! and any native test harness share this exact code path.

use crate::protocol::{
    encode_response, parse_command, Command, ParseError, Response, StoreVerb, Value,
};
use crate::store::{CasResult, McConfig, McError, Memcached};

/// Wire exptimes up to 30 days are relative; larger values are absolute
/// unix timestamps (memcached protocol rule).
const THIRTY_DAYS: u32 = 60 * 60 * 24 * 30;

/// Convert a wire exptime to an absolute expiry given the current time.
pub fn absolute_expiry(wire: u32, now: u64) -> Option<u64> {
    match wire {
        0 => None,
        t if t <= THIRTY_DAYS => Some(now + t as u64),
        t => Some(t as u64),
    }
}

/// A memcached daemon: storage engine plus protocol dispatch.
pub struct McServer {
    store: Memcached,
}

impl McServer {
    /// A daemon with the given configuration.
    pub fn new(cfg: McConfig) -> McServer {
        McServer {
            store: Memcached::new(cfg),
        }
    }

    /// Direct access to the storage engine (tests, stats scraping).
    pub fn store(&self) -> &Memcached {
        &self.store
    }

    /// Apply one command at time `now` (seconds). Returns `None` when the
    /// command was `noreply` (or `quit`), `Some(response)` otherwise.
    pub fn apply(&self, cmd: &Command, now: u64) -> Option<Response> {
        match cmd {
            Command::Store {
                verb,
                key,
                flags,
                exptime,
                data,
                noreply,
            } => {
                let exp = absolute_expiry(*exptime, now);
                if let StoreVerb::Cas(token) = verb {
                    let resp = match self.store.cas(key, data.clone(), *flags, exp, *token, now) {
                        Ok(CasResult::Stored) => Response::Stored,
                        Ok(CasResult::Exists) => Response::Exists,
                        Ok(CasResult::NotFound) => Response::NotFound,
                        Err(e) => Response::ClientError(e.to_string()),
                    };
                    return (!noreply).then_some(resp);
                }
                let result = match verb {
                    StoreVerb::Set => self
                        .store
                        .set(key, data.clone(), *flags, exp, now)
                        .map(|()| true),
                    StoreVerb::Add => self.store.add(key, data.clone(), *flags, exp, now),
                    StoreVerb::Replace => self.store.replace(key, data.clone(), *flags, exp, now),
                    StoreVerb::Append => self.store.append(key, data, now),
                    StoreVerb::Prepend => self.store.prepend(key, data, now),
                    StoreVerb::Cas(_) => unreachable!("handled above"),
                };
                let resp = match result {
                    Ok(true) => Response::Stored,
                    Ok(false) => Response::NotStored,
                    Err(e @ (McError::KeyTooLong | McError::BadKey | McError::ValueTooLarge)) => {
                        Response::ClientError(e.to_string())
                    }
                    Err(e) => Response::ServerError(e.to_string()),
                };
                (!noreply).then_some(resp)
            }
            Command::Get { keys, with_cas } => {
                let mut values = Vec::new();
                for key in keys {
                    if let Some(v) = self.store.get(key, now) {
                        values.push(Value {
                            key: key.clone(),
                            flags: v.flags,
                            cas: with_cas.then_some(v.cas),
                            data: v.value,
                        });
                    }
                }
                Some(Response::Values(values))
            }
            Command::Delete { key, noreply } => {
                let resp = if self.store.delete(key, now) {
                    Response::Deleted
                } else {
                    Response::NotFound
                };
                (!noreply).then_some(resp)
            }
            Command::Arith {
                key,
                delta,
                decrement,
                noreply,
            } => {
                let result = if *decrement {
                    self.store.decr(key, *delta, now)
                } else {
                    self.store.incr(key, *delta, now)
                };
                let resp = match result {
                    Ok(Some(n)) => Response::Number(n),
                    Ok(None) => Response::NotFound,
                    Err(e) => Response::ClientError(e.to_string()),
                };
                (!noreply).then_some(resp)
            }
            Command::Touch {
                key,
                exptime,
                noreply,
            } => {
                let exp = absolute_expiry(*exptime, now);
                let resp = if self.store.touch(key, exp, now) {
                    Response::Touched
                } else {
                    Response::NotFound
                };
                (!noreply).then_some(resp)
            }
            Command::FlushAll { noreply } => {
                self.store.flush_all();
                (!noreply).then_some(Response::Ok)
            }
            Command::Stats => {
                let s = self.store.stats();
                Some(Response::Stats(vec![
                    ("cmd_get".into(), s.cmd_get.to_string()),
                    ("cmd_set".into(), s.cmd_set.to_string()),
                    ("get_hits".into(), s.get_hits.to_string()),
                    ("get_misses".into(), s.get_misses.to_string()),
                    ("evictions".into(), s.evictions.to_string()),
                    ("expired".into(), s.expired.to_string()),
                    ("curr_items".into(), s.curr_items.to_string()),
                    ("bytes".into(), s.bytes.to_string()),
                    ("total_items".into(), s.total_items.to_string()),
                    ("limit_maxbytes".into(), s.limit_maxbytes.to_string()),
                ]))
            }
            Command::Version => Some(Response::Version("1.2.6-imca".into())),
            Command::Quit => None,
        }
    }

    /// Convenience for callers holding raw wire bytes: parse one frame from
    /// the front of `buf`, apply, encode. Returns the encoded response
    /// (empty for noreply and `quit`) and the number of request bytes
    /// consumed.
    pub fn handle_wire(&self, buf: &[u8], now: u64) -> Result<(Vec<u8>, usize), ParseError> {
        let (cmd, used) = parse_command(buf)?;
        let out = self
            .apply(&cmd, now)
            .map_or_else(Vec::new, |resp| encode_response(&resp));
        Ok((out, used))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn server() -> McServer {
        McServer::new(McConfig::default())
    }

    fn set_cmd(key: &[u8], data: &'static [u8]) -> Command {
        Command::Store {
            verb: StoreVerb::Set,
            key: key.to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from_static(data),
            noreply: false,
        }
    }

    #[test]
    fn set_then_get_through_dispatch() {
        let s = server();
        assert_eq!(s.apply(&set_cmd(b"k", b"v"), 0), Some(Response::Stored));
        let got = s.apply(
            &Command::Get {
                keys: vec![b"k".to_vec(), b"missing".to_vec()],
                with_cas: false,
            },
            0,
        );
        let Some(Response::Values(vals)) = got else {
            panic!("expected values")
        };
        assert_eq!(vals.len(), 1);
        assert_eq!(vals[0].data, &b"v"[..]);
        assert_eq!(vals[0].cas, None);
    }

    #[test]
    fn gets_returns_cas() {
        let s = server();
        s.apply(&set_cmd(b"k", b"v"), 0);
        let Some(Response::Values(vals)) = s.apply(
            &Command::Get {
                keys: vec![b"k".to_vec()],
                with_cas: true,
            },
            0,
        ) else {
            panic!()
        };
        assert!(vals[0].cas.is_some());
    }

    #[test]
    fn noreply_suppresses_response() {
        let s = server();
        let cmd = Command::Store {
            verb: StoreVerb::Set,
            key: b"k".to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from_static(b"v"),
            noreply: true,
        };
        assert_eq!(s.apply(&cmd, 0), None);
        assert_eq!(s.store().len(), 1);
    }

    #[test]
    fn exptime_semantics_relative_vs_absolute() {
        assert_eq!(absolute_expiry(0, 1000), None);
        assert_eq!(absolute_expiry(60, 1000), Some(1060));
        assert_eq!(
            absolute_expiry(THIRTY_DAYS, 1000),
            Some(1000 + THIRTY_DAYS as u64)
        );
        // Above 30 days: absolute unix time.
        let abs = THIRTY_DAYS + 1;
        assert_eq!(absolute_expiry(abs, 1000), Some(abs as u64));
    }

    #[test]
    fn delete_and_errors() {
        let s = server();
        assert_eq!(
            s.apply(
                &Command::Delete {
                    key: b"nope".to_vec(),
                    noreply: false
                },
                0
            ),
            Some(Response::NotFound)
        );
        s.apply(&set_cmd(b"k", b"v"), 0);
        assert_eq!(
            s.apply(
                &Command::Delete {
                    key: b"k".to_vec(),
                    noreply: false
                },
                0
            ),
            Some(Response::Deleted)
        );
        // Oversized value → CLIENT_ERROR like the real daemon.
        let big = Command::Store {
            verb: StoreVerb::Set,
            key: b"big".to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from(vec![0u8; 2 << 20]),
            noreply: false,
        };
        assert!(matches!(s.apply(&big, 0), Some(Response::ClientError(_))));
    }

    #[test]
    fn stats_flow_through() {
        let s = server();
        s.apply(&set_cmd(b"k", b"v"), 0);
        s.apply(
            &Command::Get {
                keys: vec![b"k".to_vec()],
                with_cas: false,
            },
            0,
        );
        let Some(Response::Stats(pairs)) = s.apply(&Command::Stats, 0) else {
            panic!()
        };
        let get = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("get_hits"), "1");
        assert_eq!(get("curr_items"), "1");
    }

    #[test]
    fn cas_through_dispatch() {
        let s = server();
        s.apply(&set_cmd(b"k", b"v1"), 0);
        let Some(Response::Values(vals)) = s.apply(
            &Command::Get {
                keys: vec![b"k".to_vec()],
                with_cas: true,
            },
            0,
        ) else {
            panic!()
        };
        let token = vals[0].cas.unwrap();
        let cas_cmd = |t: u64| Command::Store {
            verb: StoreVerb::Cas(t),
            key: b"k".to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from_static(b"v2"),
            noreply: false,
        };
        assert_eq!(s.apply(&cas_cmd(token), 0), Some(Response::Stored));
        assert_eq!(s.apply(&cas_cmd(token), 0), Some(Response::Exists));
        let missing = Command::Store {
            verb: StoreVerb::Cas(1),
            key: b"ghost".to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from_static(b"x"),
            noreply: false,
        };
        assert_eq!(s.apply(&missing, 0), Some(Response::NotFound));
    }

    /// Feed a client's whole script through `handle_wire` one frame at a
    /// time, as a serving loop would, and return everything written back.
    fn converse(s: &McServer, mut script: &[u8]) -> Result<Vec<u8>, ParseError> {
        let mut out = Vec::new();
        while !script.is_empty() {
            let (resp, used) = s.handle_wire(script, 0)?;
            out.extend_from_slice(&resp);
            script = &script[used..];
        }
        Ok(out)
    }

    #[test]
    fn scripted_sessions_over_the_wire_codec() {
        let s = McServer::new(McConfig::with_mem_limit(8 << 20));
        assert_eq!(
            converse(
                &s,
                b"set greeting 7 0 5\r\nhello\r\nget greeting\r\ndelete greeting\r\nget greeting\r\n"
            )
            .unwrap(),
            b"STORED\r\nVALUE greeting 7 5\r\nhello\r\nEND\r\nDELETED\r\nEND\r\n"
        );
        // `quit` writes nothing back.
        assert_eq!(
            converse(&s, b"set n 0 0 2\r\n41\r\nincr n 1\r\nversion\r\nquit\r\n").unwrap(),
            b"STORED\r\n42\r\nVERSION 1.2.6-imca\r\n"
        );
        // A pipelined burst: twenty frames in one buffer.
        let mut script = Vec::new();
        let mut expect = Vec::new();
        for i in 0..20 {
            script.extend_from_slice(format!("set k{i:02} 0 0 3\r\nv{i:02}\r\n").as_bytes());
            expect.extend_from_slice(b"STORED\r\n");
        }
        script.extend_from_slice(b"get k07\r\n");
        expect.extend_from_slice(b"VALUE k07 0 3\r\nv07\r\nEND\r\n");
        assert_eq!(converse(&s, &script).unwrap(), expect);
        assert!(matches!(
            converse(&s, b"set k 0 0 zz\r\n"),
            Err(ParseError::Bad(_))
        ));
    }
}
