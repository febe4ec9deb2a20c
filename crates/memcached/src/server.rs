//! The daemon's dispatch loop, minus sockets: applies a protocol
//! [`Command`] to a [`Memcached`] store and produces the [`Response`] the
//! real daemon would write back. The simulated MCD nodes in `imca-core`
//! run this code path.

use crate::protocol::{Command, Response, StoreVerb, Value};
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

/// The answer to a store the engine refused: a full cache is the
/// server's fault, anything else the client's.
fn store_error(e: McError) -> Response {
    match e {
        McError::OutOfMemory => Response::ServerError(e.to_string()),
        e => Response::ClientError(e.to_string()),
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
    /// command was `noreply`, `Some(response)` otherwise; a store that
    /// asked for its token (`with_cas`) answers the item's new CAS unique.
    pub fn apply(&self, cmd: &Command, now: u64) -> Option<Response> {
        match cmd {
            Command::Store {
                verb,
                key,
                flags,
                exptime,
                data,
                with_cas,
                noreply,
            } => {
                let exp = absolute_expiry(*exptime, now);
                let stored = |cas| match with_cas {
                    true => Response::StoredCas(cas),
                    false => Response::Stored,
                };
                let resp = match verb {
                    StoreVerb::Cas(token) => {
                        match self.store.cas(key, data.clone(), *flags, exp, *token, now) {
                            Ok(CasResult::Stored(cas)) => stored(cas),
                            Ok(CasResult::Exists) => Response::Exists,
                            Ok(CasResult::NotFound) => Response::NotFound,
                            Err(e) => Response::ClientError(e.to_string()),
                        }
                    }
                    StoreVerb::Set => match self.store.set(key, data.clone(), *flags, exp, now) {
                        Ok(cas) => stored(cas),
                        Err(e) => store_error(e),
                    },
                    StoreVerb::Add => match self.store.add(key, data.clone(), *flags, exp, now) {
                        Ok(Some(cas)) => stored(cas),
                        Ok(None) => Response::NotStored,
                        Err(e) => store_error(e),
                    },
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
            Command::Version => Some(Response::Version("1.2.6-imca".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_response, parse_command, ParseError};
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
            with_cas: false,
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
            with_cas: false,
            noreply: true,
        };
        assert_eq!(s.apply(&cmd, 0), None);
        assert_eq!(s.store().len(), 1);
    }

    #[test]
    fn a_store_that_asks_answers_the_token_a_later_gets_reports() {
        let s = server();
        let gets = |s: &McServer| {
            let cmd = Command::Get {
                keys: vec![b"k".to_vec()],
                with_cas: true,
            };
            let Some(Response::Values(vals)) = s.apply(&cmd, 0) else {
                panic!("expected values")
            };
            vals[0].cas.unwrap()
        };
        let store = |verb, noreply| Command::Store {
            verb,
            key: b"k".to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from_static(b"v"),
            with_cas: true,
            noreply,
        };
        let Some(Response::StoredCas(set)) = s.apply(&store(StoreVerb::Set, false), 0) else {
            panic!("a set that asks answers its token")
        };
        assert_eq!(gets(&s), set);
        let Some(Response::StoredCas(swapped)) = s.apply(&store(StoreVerb::Cas(set), false), 0)
        else {
            panic!("a cas that asks answers its token")
        };
        assert_ne!(swapped, set);
        assert_eq!(gets(&s), swapped);
        // `noreply` wins: the store lands and answers nothing.
        assert_eq!(s.apply(&store(StoreVerb::Set, true), 0), None);
        assert!(gets(&s) > swapped);
        // A refused `cas` answers as it always did.
        let stale = store(StoreVerb::Cas(swapped), false);
        assert_eq!(s.apply(&stale, 0), Some(Response::Exists));
    }

    #[test]
    fn add_through_dispatch_never_replaces() {
        let s = server();
        let add = |data: &'static [u8]| Command::Store {
            verb: StoreVerb::Add,
            key: b"k".to_vec(),
            flags: 0,
            exptime: 0,
            data: Bytes::from_static(data),
            with_cas: false,
            noreply: false,
        };
        assert_eq!(s.apply(&add(b"!"), 0), Some(Response::Stored));
        s.apply(&set_cmd(b"k", b"stat"), 0);
        assert_eq!(s.apply(&add(b"!"), 0), Some(Response::NotStored));
        let get = Command::Get {
            keys: vec![b"k".to_vec()],
            with_cas: false,
        };
        let Some(Response::Values(vals)) = s.apply(&get, 0) else {
            panic!("expected values")
        };
        assert_eq!(vals[0].data, &b"stat"[..]);
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
            with_cas: false,
            noreply: false,
        };
        assert!(matches!(s.apply(&big, 0), Some(Response::ClientError(_))));
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
            with_cas: false,
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
            with_cas: false,
            noreply: false,
        };
        assert_eq!(s.apply(&missing, 0), Some(Response::NotFound));
    }

    /// Feed a client's whole script through the codec one frame at a
    /// time, as a serving loop would — parse, apply, encode — and return
    /// everything written back.
    fn converse(s: &McServer, mut script: &[u8]) -> Result<Vec<u8>, ParseError> {
        let mut out = Vec::new();
        while !script.is_empty() {
            let (cmd, used) = parse_command(script)?;
            if let Some(resp) = s.apply(&cmd, 0) {
                out.extend_from_slice(&encode_response(&resp));
            }
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
        // A `noreply` store writes nothing back; `gets` adds the token,
        // and a `cas` with it replaces the value once.
        assert_eq!(
            converse(
                &s,
                b"set n 0 0 2 noreply\r\n41\r\ngets n\r\ncas n 0 0 2 2\r\n42\r\ncas n 0 0 2 2\r\n43\r\nget n\r\nversion\r\n"
            )
            .unwrap(),
            &b"VALUE n 0 2 2\r\n41\r\nEND\r\nSTORED\r\nEXISTS\r\nVALUE n 0 2\r\n42\r\nEND\r\nVERSION 1.2.6-imca\r\n"[..]
        );
        // A store that asks for its token gets it back in the meta answer.
        assert_eq!(
            converse(&s, b"set t 0 0 1 c\r\nx\r\ngets t\r\n").unwrap(),
            &b"HD c4\r\nVALUE t 0 1 4\r\nx\r\nEND\r\n"[..]
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
