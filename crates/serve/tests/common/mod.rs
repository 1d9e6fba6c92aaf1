//! A wire server on either transport, for the integration suites.

use barracuda_serve::{serve_tcp_listener, Endpoint, ServerConfig, ServerStats};
use std::thread::JoinHandle;
use std::time::Duration;

/// Both transports a test body runs over.
#[derive(Debug, Clone, Copy)]
pub enum Wire {
    Unix,
    Tcp,
}

/// Starts a default-config server on `wire` and returns its endpoint,
/// ready for connections, and the thread that returns its final stats
/// after a client asks it to shut down. `tag` keeps concurrently running
/// tests' socket paths apart.
pub fn spawn_server(wire: Wire, tag: &str) -> (Endpoint, JoinHandle<ServerStats>) {
    match wire {
        Wire::Unix => {
            let path =
                std::env::temp_dir().join(format!("barracuda-{tag}-{}.sock", std::process::id()));
            let endpoint = Endpoint::Unix(path.clone());
            let server = {
                let endpoint = endpoint.clone();
                std::thread::spawn(move || endpoint.serve(ServerConfig::default()).expect("serve"))
            };
            for _ in 0..200 {
                if path.exists() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            (endpoint, server)
        }
        Wire::Tcp => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr"));
            let server = std::thread::spawn(move || {
                serve_tcp_listener(listener, ServerConfig::default()).expect("serve")
            });
            (endpoint, server)
        }
    }
}
