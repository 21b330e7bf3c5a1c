//! Blocking client for the serve protocol, used by `soupctl query`, the
//! load generator, and the integration tests.

use crate::proto::{self, Request, Response, MAX_FRAME};
use soup_error::SoupError;
use soup_store::frame::{write_frame, FrameBuf, Next};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Outcome of one PREDICT call. `Overloaded` is not an error: the server
/// explicitly rejected the request at admission and the caller decides
/// whether to retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictResult {
    /// Served: the model version that answered and one class per node.
    Classes { version: u64, classes: Vec<u32> },
    /// Rejected at admission (queue full).
    Overloaded,
}

/// One connection to a soup server. Requests are synchronous: send a
/// frame, block for the response frame.
pub struct Client {
    stream: TcpStream,
    buf: FrameBuf,
}

impl Client {
    /// Connect with a bounded timeout (local serving; seconds mean a dead
    /// server, not a slow one).
    pub fn connect(addr: SocketAddr) -> soup_error::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: FrameBuf::new(MAX_FRAME),
        })
    }

    fn call(&mut self, req: &Request) -> soup_error::Result<Response> {
        let request = proto::encode_request(req);
        write_frame(&mut self.stream, MAX_FRAME, &[&request])?;
        match self.buf.read_frame(&mut self.stream, None)? {
            Next::Frame(payload) => proto::decode_response(payload),
            _ => Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into()),
        }
    }

    fn call_version(&mut self, req: &Request, what: &str) -> soup_error::Result<u64> {
        match self.call(req)? {
            Response::Ok(body) => {
                Ok(u64::from_le_bytes(body.try_into().map_err(|_| {
                    SoupError::parse(format!("{what} reply is not a u64 version"))
                })?))
            }
            Response::Error(msg) => Err(SoupError::parse(format!("server: {msg}"))),
            Response::Overloaded => Err(SoupError::parse(format!("{what} was rejected"))),
        }
    }

    /// Liveness probe; returns the live model version.
    pub fn ping(&mut self) -> soup_error::Result<u64> {
        self.call_version(&Request::Ping, "ping")
    }

    /// Classify `nodes`; distinguishes served answers from admission
    /// rejections. A reply with a class count other than `nodes.len()` is
    /// a `corrupt` error.
    pub fn predict(&mut self, nodes: &[u32]) -> soup_error::Result<PredictResult> {
        match self.call(&Request::Predict(nodes.to_vec()))? {
            Response::Ok(body) => {
                let (version, classes) = proto::decode_predictions(&body)?;
                if classes.len() != nodes.len() {
                    return Err(SoupError::corrupt(format!(
                        "predict reply has {} classes for {} node ids",
                        classes.len(),
                        nodes.len()
                    )));
                }
                Ok(PredictResult::Classes { version, classes })
            }
            Response::Overloaded => Ok(PredictResult::Overloaded),
            Response::Error(msg) => Err(SoupError::parse(format!("server: {msg}"))),
        }
    }

    /// Serving metrics snapshot as a JSON string.
    pub fn stats(&mut self) -> soup_error::Result<String> {
        match self.call(&Request::Stats)? {
            Response::Ok(body) => {
                String::from_utf8(body).map_err(|_| SoupError::parse("stats reply is not UTF-8"))
            }
            Response::Error(msg) => Err(SoupError::parse(format!("server: {msg}"))),
            Response::Overloaded => Err(SoupError::parse("stats was rejected")),
        }
    }

    /// Promote the checkpoint at `path`; returns the new model version
    /// once the swap is visible to subsequent requests.
    pub fn swap(&mut self, path: &str) -> soup_error::Result<u64> {
        self.call_version(&Request::Swap(path.to_string()), "swap")
    }

    /// Re-soup the pool at `dir` with `strategy` and promote the result.
    pub fn resoup(&mut self, strategy: &str, dir: &str, seed: u64) -> soup_error::Result<u64> {
        self.call_version(
            &Request::Resoup {
                strategy: strategy.to_string(),
                dir: dir.to_string(),
                seed,
            },
            "resoup",
        )
    }

    /// Ask the server to exit its serve loop.
    pub fn shutdown(&mut self) -> soup_error::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Ok(_) => Ok(()),
            Response::Error(msg) => Err(SoupError::parse(format!("server: {msg}"))),
            Response::Overloaded => Err(SoupError::parse("shutdown was rejected")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_short_predict_reply_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A server that answers every PREDICT with two classes.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = FrameBuf::new(MAX_FRAME);
            let Next::Frame(_) = buf.read_frame(&mut stream, None).unwrap() else {
                panic!("client sent no request");
            };
            let reply = Response::Ok(proto::encode_predictions(1, &[0, 1]));
            let payload = proto::encode_response(&reply);
            write_frame(&mut stream, MAX_FRAME, &[&payload]).unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client.predict(&[0, 1, 2]).unwrap_err();
        assert!(matches!(err, SoupError::Corrupt(_)), "{err}");
        server.join().unwrap();
    }
}
