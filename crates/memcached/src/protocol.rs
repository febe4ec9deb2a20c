//! The memcached ASCII protocol — the wire format clients used in 2008
//! (binary protocol came later) — for the commands the bank sends: `get`,
//! `gets`, `set`, `cas`, `delete` (each store and delete optionally
//! `noreply`) and the `version` sync barrier. A store may also ask for
//! the item's new CAS unique, as memcached ≥ 1.6's meta `ms <key> … c`
//! does: here a trailing `c` token, answered `HD c<cas>`. Implemented as
//! a streaming codec: `parse_*` returns `Incomplete` until a full frame
//! is buffered.

use bytes::Bytes;

/// A client→server command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Storage commands (`set`/`cas`).
    Store {
        /// Which storage verb.
        verb: StoreVerb,
        /// Item key.
        key: Vec<u8>,
        /// Opaque client flags.
        flags: u32,
        /// Expiry as sent on the wire (relative seconds if ≤ 30 days,
        /// absolute unix time otherwise, 0 = never).
        exptime: u32,
        /// The data block.
        data: Bytes,
        /// Answer with the item's new CAS unique (meta `ms … c`): a stored
        /// item answers [`Response::StoredCas`] instead of `STORED`.
        with_cas: bool,
        /// Suppress the reply (it wins over `with_cas`).
        noreply: bool,
    },
    /// `get <key>+` (also `gets`, which returns CAS tokens).
    Get {
        /// Keys to fetch.
        keys: Vec<Vec<u8>>,
        /// Whether CAS tokens were requested (`gets`).
        with_cas: bool,
    },
    /// `delete <key> [noreply]`.
    Delete {
        /// Key to remove.
        key: Vec<u8>,
        /// Suppress the reply.
        noreply: bool,
    },
    /// `version` (the bank's pipeline sync barrier).
    Version,
}

/// The storage verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// Unconditional store.
    Set,
    /// Store only if the CAS token still matches (`cas` command).
    Cas(u64),
}

impl StoreVerb {
    fn as_str(self) -> &'static str {
        match self {
            StoreVerb::Set => "set",
            StoreVerb::Cas(_) => "cas",
        }
    }
}

/// One `VALUE` block in a get response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    /// Item key.
    pub key: Vec<u8>,
    /// Stored flags.
    pub flags: u32,
    /// CAS token (present for `gets`).
    pub cas: Option<u64>,
    /// The data block.
    pub data: Bytes,
}

/// A server→client response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `STORED`.
    Stored,
    /// `HD c<cas>`: stored, with the item's new CAS unique — the answer to
    /// a store that asked for it (`with_cas`).
    StoredCas(u64),
    /// `NOT_FOUND`.
    NotFound,
    /// `EXISTS` (cas token mismatch).
    Exists,
    /// `DELETED`.
    Deleted,
    /// Zero or more `VALUE` blocks terminated by `END`.
    Values(Vec<Value>),
    /// `VERSION <s>`.
    Version(String),
    /// `CLIENT_ERROR <msg>`.
    ClientError(String),
    /// `SERVER_ERROR <msg>`.
    ServerError(String),
}

impl Response {
    /// The message a daemon puts in its `SERVER_ERROR` when admission
    /// control sheds a request instead of queueing it (mirrors real
    /// memcached's `SERVER_ERROR out of memory`-style refusals).
    pub const BUSY: &'static str = "busy";

    /// The explicit load-shed reply: `SERVER_ERROR busy`.
    pub fn busy() -> Response {
        Response::ServerError(Self::BUSY.into())
    }

    /// Whether this reply is the admission-control shed. Clients treat it
    /// like a miss (the daemon is healthy, just refusing work), never as
    /// a reason to retry or quarantine.
    pub fn is_busy(&self) -> bool {
        matches!(self, Response::ServerError(m) if m == Self::BUSY)
    }
}

/// Codec failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// More bytes are needed to complete the frame.
    Incomplete,
    /// The frame is malformed.
    Bad(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Incomplete => write!(f, "incomplete frame"),
            ParseError::Bad(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

const CRLF: &[u8] = b"\r\n";

fn find_line(buf: &[u8]) -> Option<(&[u8], usize)> {
    buf.windows(2)
        .position(|w| w == CRLF)
        .map(|i| (&buf[..i], i + 2))
}

fn bad<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError::Bad(msg.into()))
}

fn parse_num<T: std::str::FromStr>(tok: &[u8], what: &str) -> Result<T, ParseError> {
    std::str::from_utf8(tok)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ParseError::Bad(format!("bad {what}")))
}

/// Append a decimal integer to `out` without the intermediate `String`
/// that `format!` allocates — the encoders run once per RPC, and those
/// per-field temporaries dominated the codec's allocation profile.
fn put_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Serialise a command to wire bytes.
pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let mut wire = Vec::new();
    let out = &mut wire;
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
            out.extend_from_slice(verb.as_str().as_bytes());
            out.push(b' ');
            out.extend_from_slice(key);
            out.push(b' ');
            put_u64(out, u64::from(*flags));
            out.push(b' ');
            put_u64(out, u64::from(*exptime));
            out.push(b' ');
            put_u64(out, data.len() as u64);
            if let StoreVerb::Cas(token) = verb {
                out.push(b' ');
                put_u64(out, *token);
            }
            if *with_cas {
                out.extend_from_slice(b" c");
            }
            if *noreply {
                out.extend_from_slice(b" noreply");
            }
            out.extend_from_slice(CRLF);
            out.extend_from_slice(data);
            out.extend_from_slice(CRLF);
        }
        Command::Get { keys, with_cas } => {
            out.extend_from_slice(if *with_cas { b"gets" } else { b"get" });
            for k in keys {
                out.push(b' ');
                out.extend_from_slice(k);
            }
            out.extend_from_slice(CRLF);
        }
        Command::Delete { key, noreply } => {
            out.extend_from_slice(b"delete ");
            out.extend_from_slice(key);
            if *noreply {
                out.extend_from_slice(b" noreply");
            }
            out.extend_from_slice(CRLF);
        }
        Command::Version => out.extend_from_slice(b"version\r\n"),
    }
    wire
}

/// Parse one command from the front of `buf`; returns the command and the
/// number of bytes consumed.
pub fn parse_command(buf: &[u8]) -> Result<(Command, usize), ParseError> {
    let (line, line_len) = find_line(buf).ok_or(ParseError::Incomplete)?;
    let mut toks = line.split(|&b| b == b' ').filter(|t| !t.is_empty());
    let verb_tok = toks
        .next()
        .ok_or_else(|| ParseError::Bad("empty line".into()))?;
    let verb_str = std::str::from_utf8(verb_tok).map_err(|_| ParseError::Bad("verb".into()))?;
    let store_verb = match verb_str {
        "set" => Some(StoreVerb::Set),
        "cas" => Some(StoreVerb::Cas(0)), // token parsed below
        _ => None,
    };
    if let Some(mut verb) = store_verb {
        let key = toks
            .next()
            .ok_or_else(|| ParseError::Bad("missing key".into()))?;
        let flags: u32 = parse_num(toks.next().unwrap_or(b""), "flags")?;
        let exptime: u32 = parse_num(toks.next().unwrap_or(b""), "exptime")?;
        let nbytes: usize = parse_num(toks.next().unwrap_or(b""), "bytes")?;
        if let StoreVerb::Cas(_) = verb {
            let token: u64 = parse_num(toks.next().unwrap_or(b""), "cas token")?;
            verb = StoreVerb::Cas(token);
        }
        let (mut with_cas, mut noreply) = (false, false);
        for tok in toks {
            match tok {
                b"c" => with_cas = true,
                b"noreply" => noreply = true,
                _ => return bad("unknown store flag"),
            }
        }
        let need = line_len + nbytes + 2;
        if buf.len() < need {
            return Err(ParseError::Incomplete);
        }
        let data = &buf[line_len..line_len + nbytes];
        if &buf[line_len + nbytes..need] != CRLF {
            return bad("data block not CRLF-terminated");
        }
        return Ok((
            Command::Store {
                verb,
                key: key.to_vec(),
                flags,
                exptime,
                data: Bytes::copy_from_slice(data),
                with_cas,
                noreply,
            },
            need,
        ));
    }
    let cmd = match verb_str {
        "get" | "gets" => {
            let keys: Vec<Vec<u8>> = toks.map(|t| t.to_vec()).collect();
            if keys.is_empty() {
                return bad("get without keys");
            }
            Command::Get {
                keys,
                with_cas: verb_str == "gets",
            }
        }
        "delete" => {
            let key = toks
                .next()
                .ok_or_else(|| ParseError::Bad("missing key".into()))?;
            Command::Delete {
                key: key.to_vec(),
                noreply: matches!(toks.next(), Some(b"noreply")),
            }
        }
        "version" => Command::Version,
        other => return bad(format!("unknown command {other:?}")),
    };
    Ok((cmd, line_len))
}

/// Serialise a response to wire bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut wire = Vec::new();
    let out = &mut wire;
    match resp {
        Response::Stored => out.extend_from_slice(b"STORED\r\n"),
        Response::StoredCas(cas) => {
            out.extend_from_slice(b"HD c");
            put_u64(out, *cas);
            out.extend_from_slice(CRLF);
        }
        Response::NotFound => out.extend_from_slice(b"NOT_FOUND\r\n"),
        Response::Exists => out.extend_from_slice(b"EXISTS\r\n"),
        Response::Deleted => out.extend_from_slice(b"DELETED\r\n"),
        Response::Version(v) => {
            out.extend_from_slice(b"VERSION ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(CRLF);
        }
        Response::ClientError(m) => {
            out.extend_from_slice(b"CLIENT_ERROR ");
            out.extend_from_slice(m.as_bytes());
            out.extend_from_slice(CRLF);
        }
        Response::ServerError(m) => {
            out.extend_from_slice(b"SERVER_ERROR ");
            out.extend_from_slice(m.as_bytes());
            out.extend_from_slice(CRLF);
        }
        Response::Values(values) => {
            for v in values {
                out.extend_from_slice(b"VALUE ");
                out.extend_from_slice(&v.key);
                out.push(b' ');
                put_u64(out, u64::from(v.flags));
                out.push(b' ');
                put_u64(out, v.data.len() as u64);
                if let Some(cas) = v.cas {
                    out.push(b' ');
                    put_u64(out, cas);
                }
                out.extend_from_slice(CRLF);
                out.extend_from_slice(&v.data);
                out.extend_from_slice(CRLF);
            }
            out.extend_from_slice(b"END\r\n");
        }
    }
    wire
}

/// Parse one response frame from the front of `buf`; returns the response
/// and the number of bytes consumed.
pub fn parse_response(buf: &[u8]) -> Result<(Response, usize), ParseError> {
    let (line, line_len) = find_line(buf).ok_or(ParseError::Incomplete)?;
    // Multi-line frames: VALUE... sequences end with END.
    if line.starts_with(b"VALUE ") || line == b"END" {
        let mut values = Vec::new();
        let mut pos = 0;
        loop {
            let (line, line_len) = find_line(&buf[pos..]).ok_or(ParseError::Incomplete)?;
            if line == b"END" {
                // Plain END with no VALUE lines is an empty Values.
                return Ok((Response::Values(values), pos + line_len));
            }
            if !line.starts_with(b"VALUE ") {
                return bad("expected VALUE or END");
            }
            let mut toks = line[6..].split(|&b| b == b' ').filter(|t| !t.is_empty());
            let key = toks
                .next()
                .ok_or_else(|| ParseError::Bad("VALUE key".into()))?;
            let flags: u32 = parse_num(toks.next().unwrap_or(b""), "flags")?;
            let nbytes: usize = parse_num(toks.next().unwrap_or(b""), "bytes")?;
            let cas = match toks.next() {
                Some(tok) => Some(parse_num::<u64>(tok, "cas")?),
                None => None,
            };
            let data_start = pos + line_len;
            let need = data_start + nbytes + 2;
            if buf.len() < need {
                return Err(ParseError::Incomplete);
            }
            if &buf[data_start + nbytes..need] != CRLF {
                return bad("VALUE data not CRLF-terminated");
            }
            values.push(Value {
                key: key.to_vec(),
                flags,
                cas,
                data: Bytes::copy_from_slice(&buf[data_start..data_start + nbytes]),
            });
            pos = need;
        }
    }
    let resp = match line {
        b"STORED" => Response::Stored,
        b"NOT_FOUND" => Response::NotFound,
        b"EXISTS" => Response::Exists,
        b"DELETED" => Response::Deleted,
        _ => {
            let s = std::str::from_utf8(line).map_err(|_| ParseError::Bad("utf8".into()))?;
            if let Some(cas) = s.strip_prefix("HD c") {
                Response::StoredCas(parse_num(cas.as_bytes(), "cas")?)
            } else if let Some(m) = s.strip_prefix("CLIENT_ERROR ") {
                Response::ClientError(m.to_string())
            } else if let Some(m) = s.strip_prefix("SERVER_ERROR ") {
                Response::ServerError(m.to_string())
            } else if let Some(v) = s.strip_prefix("VERSION ") {
                Response::Version(v.to_string())
            } else {
                return bad(format!("unknown response {s:?}"));
            }
        }
    };
    Ok((resp, line_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_cmd(cmd: Command) {
        let wire = encode_command(&cmd);
        let (parsed, used) = parse_command(&wire).unwrap();
        assert_eq!(parsed, cmd);
        assert_eq!(used, wire.len());
    }

    fn rt_resp(resp: Response) {
        let wire = encode_response(&resp);
        let (parsed, used) = parse_response(&wire).unwrap();
        assert_eq!(parsed, resp);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn command_round_trips() {
        rt_cmd(Command::Store {
            verb: StoreVerb::Set,
            key: b"/f/g:4096".to_vec(),
            flags: 42,
            exptime: 0,
            data: Bytes::from_static(b"hello\r\nworld"),
            with_cas: false,
            noreply: false,
        });
        rt_cmd(Command::Store {
            verb: StoreVerb::Set,
            key: b"k".to_vec(),
            flags: 0,
            exptime: 100,
            data: Bytes::new(),
            with_cas: true,
            noreply: true,
        });
        rt_cmd(Command::Store {
            verb: StoreVerb::Cas(987654321),
            key: b"locked".to_vec(),
            flags: 3,
            exptime: 0,
            data: Bytes::from_static(b"swap"),
            with_cas: true,
            noreply: false,
        });
        rt_cmd(Command::Get {
            keys: vec![b"a".to_vec(), b"b".to_vec()],
            with_cas: false,
        });
        rt_cmd(Command::Get {
            keys: vec![b"x".to_vec()],
            with_cas: true,
        });
        rt_cmd(Command::Delete {
            key: b"gone".to_vec(),
            noreply: true,
        });
        rt_cmd(Command::Version);
    }

    #[test]
    fn response_round_trips() {
        for r in [
            Response::Stored,
            Response::StoredCas(18_446_744_073_709_551_615),
            Response::NotFound,
            Response::Exists,
            Response::Deleted,
            Response::Version("1.2.6".into()),
            Response::ClientError("bad data chunk".into()),
            Response::ServerError("out of memory".into()),
            Response::Values(vec![]),
            Response::Values(vec![Value {
                key: b"k".to_vec(),
                flags: 1,
                cas: None,
                data: Bytes::from_static(b"binary\r\ndata\0ok"),
            }]),
            Response::Values(vec![
                Value {
                    key: b"a".to_vec(),
                    flags: 0,
                    cas: Some(99),
                    data: Bytes::from_static(b""),
                },
                Value {
                    key: b"b".to_vec(),
                    flags: 7,
                    cas: Some(100),
                    data: Bytes::from_static(b"x"),
                },
            ]),
        ] {
            rt_resp(r);
        }
    }

    #[test]
    fn incomplete_frames_ask_for_more() {
        assert_eq!(parse_command(b"get k"), Err(ParseError::Incomplete));
        assert_eq!(
            parse_command(b"set k 0 0 10\r\nhello"),
            Err(ParseError::Incomplete)
        );
        assert_eq!(
            parse_response(b"VALUE k 0 5\r\nab"),
            Err(ParseError::Incomplete)
        );
        assert_eq!(
            parse_response(b"VALUE k 0 1\r\na\r\n"),
            Err(ParseError::Incomplete)
        );
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(matches!(
            parse_command(b"set k 0 0 zz\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse_command(b"bogus\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(parse_command(b"get\r\n"), Err(ParseError::Bad(_))));
        // Data block missing its CRLF terminator.
        assert!(matches!(
            parse_command(b"set k 0 0 2\r\nabXX"),
            Err(ParseError::Bad(_))
        ));
    }

    #[test]
    fn pipelined_commands_consume_exactly_one_frame() {
        let delete = Command::Delete {
            key: b"k".to_vec(),
            noreply: true,
        };
        let mut wire = encode_command(&delete);
        wire.extend_from_slice(&encode_command(&Command::Version));
        let (c1, used) = parse_command(&wire).unwrap();
        assert_eq!(c1, delete);
        let (c2, used2) = parse_command(&wire[used..]).unwrap();
        assert_eq!(c2, Command::Version);
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn binary_safe_values() {
        // Values containing CRLF and END-lookalikes must round trip: the
        // byte count, not sentinels, delimits data.
        let tricky = Bytes::from_static(b"END\r\nVALUE fake 0 0\r\n");
        rt_resp(Response::Values(vec![Value {
            key: b"k".to_vec(),
            flags: 0,
            cas: None,
            data: tricky,
        }]));
    }
}
