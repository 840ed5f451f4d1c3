//! Requests and per-session state.
//!
//! A *session* is one client's stream of requests served against that
//! client's private state: its own passwords and secret files live in the
//! session's [`World`], so two sessions of the same binary never share
//! private data.  The attacker-observable output (`sent`, `log`) produced by
//! each session is collected per request, which is what the end-to-end
//! observational-equivalence tests compare across runs.
//!
//! Sessions also pin the *version* they are served by: the runtime checks
//! out the active version when the session starts and releases it when the
//! session ends, so a blue/green promotion mid-run never swaps a binary out
//! from under a live session.

use confllvm_vm::World;

use crate::handles::SessionId;

/// One request: run `entry(args)` after optionally queueing `input` on the
/// session world's network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Entry point to run.
    pub entry: String,
    /// Its arguments.
    pub args: Vec<i64>,
    /// Bytes pushed onto `World::network_in` before the entry runs (the wire
    /// form of the request, e.g. `GET doc3\0`).
    pub input: Option<Vec<u8>>,
}

impl Request {
    /// A request with no network payload.
    pub fn new(entry: &str, args: &[i64]) -> Self {
        Request {
            entry: entry.to_string(),
            args: args.to_vec(),
            input: None,
        }
    }

    /// A request whose wire bytes are queued before the entry runs.
    pub fn with_input(entry: &str, args: &[i64], input: Vec<u8>) -> Self {
        Request {
            entry: entry.to_string(),
            args: args.to_vec(),
            input: Some(input),
        }
    }
}

/// One client session: an id, the client's private state, and the request
/// stream to serve.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Caller-chosen id, unique within one serve call.
    pub id: SessionId,
    /// The session's world — private files, passwords, keys.  Queued network
    /// input should be left empty; the runtime pushes each request's `input`
    /// right before running it.
    pub world: World,
    /// The request stream, served in order.
    pub requests: Vec<Request>,
}

impl SessionSpec {
    /// A session serving `requests` against `world`.
    pub fn new(id: impl Into<SessionId>, world: World, requests: Vec<Request>) -> Self {
        SessionSpec {
            id: id.into(),
            world,
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_constructors() {
        let r = Request::new("handle_query", &[17]);
        assert_eq!(r.entry, "handle_query");
        assert_eq!(r.args, vec![17]);
        assert!(r.input.is_none());
        let r = Request::with_input("handle_request", &[1024], b"GET doc0\0".to_vec());
        assert_eq!(r.input.as_deref(), Some(&b"GET doc0\0"[..]));
    }
}
