//! Reference client for the `papd` wire protocol.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{
    decode_reply, encode_frame, CalibrateAnswer, CalibrateRequest, ErrorReply, QueryAnswer,
    QueryRequest, ReplicaDump, Reply, ReplyEnvelope, Request, RequestEnvelope, StatsReport,
    PROTO_VERSION,
};

/// A blocking protocol client over one TCP connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connect to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone stream: {e}"))?);
        Ok(Client { writer: stream, reader, next_id: 1 })
    }

    /// Send one request frame without reading a reply; returns its `id`.
    /// Pair with [`Client::recv`] to pipeline.
    pub fn send(&mut self, req: Request) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let env = RequestEnvelope { v: PROTO_VERSION, id, req };
        self.writer
            .write_all(encode_frame(&env).as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        Ok(id)
    }

    /// Send a raw pre-encoded line (for protocol tests; the line should end
    /// with `'\n'`).
    pub fn send_raw(&mut self, line: &str) -> Result<(), String> {
        self.writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))
    }

    /// Read the next reply frame.
    pub fn recv(&mut self) -> Result<ReplyEnvelope, String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("connection closed by server".to_string());
        }
        decode_reply(line.trim_end())
    }

    /// One request/reply round trip; checks the echoed `id`.
    pub(crate) fn call(&mut self, req: Request) -> Result<Reply, String> {
        let id = self.send(req)?;
        let env = self.recv()?;
        if env.id != id {
            return Err(format!("reply id {} does not match request id {id}", env.id));
        }
        Ok(env.reply)
    }

    /// Ask which algorithm to use; error replies become `Err`.
    pub fn query(&mut self, q: QueryRequest) -> Result<QueryAnswer, String> {
        match self.call(Request::Query(q))? {
            Reply::Answer(a) => Ok(a),
            Reply::Error(e) => Err(format!("{:?}: {}", e.code, e.message)),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Pipelined batch: all queries are written before any reply is read.
    /// Results come back in request order, one slot per query — a rejected
    /// query puts its typed [`ErrorReply`] in its own slot without
    /// poisoning the rest of the batch. Only transport-level failures
    /// (connection loss, garbled framing, id mismatch) fail the whole call.
    pub fn query_batch(
        &mut self,
        queries: Vec<QueryRequest>,
    ) -> Result<Vec<Result<QueryAnswer, ErrorReply>>, String> {
        let ids: Vec<u64> =
            queries.into_iter().map(|q| self.send(Request::Query(q))).collect::<Result<_, _>>()?;
        let mut results = Vec::with_capacity(ids.len());
        for id in ids {
            let env = self.recv()?;
            if env.id != id {
                return Err(format!("reply id {} does not match request id {id}", env.id));
            }
            match env.reply {
                Reply::Answer(a) => results.push(Ok(a)),
                Reply::Error(e) => results.push(Err(e)),
                other => return Err(format!("unexpected reply {other:?}")),
            }
        }
        Ok(results)
    }

    /// Onboard a machine from a measured probe: the server fits, registers
    /// `custom:<name>`, and publishes a model-backed L2 grid at `ranks`.
    pub fn calibrate(
        &mut self,
        name: &str,
        ranks: usize,
        probe: pap_calibrate::Probe,
    ) -> Result<CalibrateAnswer, String> {
        let req = CalibrateRequest { name: name.to_string(), ranks, probe };
        match self.call(Request::Calibrate(req))? {
            Reply::Calibrated(a) => Ok(a),
            Reply::Error(e) => Err(format!("{:?}: {}", e.code, e.message)),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Pull one page of the server's L2 evidence (warm replication).
    pub(crate) fn replicate(&mut self, offset: usize, limit: usize) -> Result<ReplicaDump, String> {
        match self.call(Request::Replicate { offset, limit })? {
            Reply::Replica(d) => Ok(d),
            Reply::Error(e) => Err(format!("{:?}: {}", e.code, e.message)),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Fetch the server's observability counters.
    pub fn stats(&mut self) -> Result<StatsReport, String> {
        match self.call(Request::Stats)? {
            Reply::Stats(r) => Ok(r),
            Reply::Error(e) => Err(format!("{:?}: {}", e.code, e.message)),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Fetch the generic metrics snapshot (server registry + process-global
    /// library metrics).
    pub fn metrics(&mut self) -> Result<pap_obs::MetricsSnapshot, String> {
        match self.call(Request::Metrics)? {
            Reply::Metrics(m) => Ok(m),
            Reply::Error(e) => Err(format!("{:?}: {}", e.code, e.message)),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.call(Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Ask the daemon to shut down gracefully; resolves on its `Bye`.
    pub fn shutdown(&mut self) -> Result<(), String> {
        match self.call(Request::Shutdown)? {
            Reply::Bye => Ok(()),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }
}
