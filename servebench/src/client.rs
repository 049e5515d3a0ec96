//! A blocking client connection speaking the line-delimited TCP protocol.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No single request of the benchmark comes near this; a reply slower than it
/// is a hung server, reported as a failed operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and returns the reply line without its newline.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if reply.ends_with('\n') {
            reply.pop();
        }
        Ok(reply)
    }
}
