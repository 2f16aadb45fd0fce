//! Resource records.

use std::fmt;
use std::net::Ipv4Addr;

use crate::name::DnsName;

/// Record types (the subset the workspace uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecordType {
    A,
    Ns,
    Cname,
    Soa,
    Ptr,
    Txt,
    Srv,
}

impl RecordType {
    /// How many record types there are (`self as usize` indexes them).
    pub const COUNT: usize = 7;
}

/// Typed record data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RData {
    A(Ipv4Addr),
    Ns(DnsName),
    Cname(DnsName),
    Soa {
        mname: DnsName,
        rname: DnsName,
        serial: u32,
        refresh: u32,
        retry: u32,
        expire: u32,
        minimum: u32,
    },
    Ptr(DnsName),
    Txt(String),
    Srv {
        priority: u16,
        weight: u16,
        port: u16,
        target: DnsName,
    },
}

/// A resource record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceRecord {
    pub name: DnsName,
    pub ttl: u32,
    pub rdata: RData,
}

impl ResourceRecord {
    pub fn new(name: DnsName, ttl: u32, rdata: RData) -> Self {
        ResourceRecord { name, ttl, rdata }
    }

    pub fn rtype(&self) -> RecordType {
        match self.rdata {
            RData::A(_) => RecordType::A,
            RData::Ns(_) => RecordType::Ns,
            RData::Cname(_) => RecordType::Cname,
            RData::Soa { .. } => RecordType::Soa,
            RData::Ptr(_) => RecordType::Ptr,
            RData::Txt(_) => RecordType::Txt,
            RData::Srv { .. } => RecordType::Srv,
        }
    }

    /// Convenience constructors for the common cases.
    pub fn a(name: &str, ttl: u32, addr: [u8; 4]) -> Self {
        ResourceRecord::new(
            DnsName::parse(name).expect("valid name literal"),
            ttl,
            RData::A(Ipv4Addr::from(addr)),
        )
    }

    pub fn txt(name: &str, ttl: u32, text: impl Into<String>) -> Self {
        ResourceRecord::new(
            DnsName::parse(name).expect("valid name literal"),
            ttl,
            RData::Txt(text.into()),
        )
    }

    pub fn ns(name: &str, ttl: u32, target: &str) -> Self {
        ResourceRecord::new(
            DnsName::parse(name).expect("valid name literal"),
            ttl,
            RData::Ns(DnsName::parse(target).expect("valid target literal")),
        )
    }

    pub fn cname(name: &str, ttl: u32, target: &str) -> Self {
        ResourceRecord::new(
            DnsName::parse(name).expect("valid name literal"),
            ttl,
            RData::Cname(DnsName::parse(target).expect("valid target literal")),
        )
    }

    pub fn srv(name: &str, ttl: u32, priority: u16, weight: u16, port: u16, target: &str) -> Self {
        ResourceRecord::new(
            DnsName::parse(name).expect("valid name literal"),
            ttl,
            RData::Srv {
                priority,
                weight,
                port,
                target: DnsName::parse(target).expect("valid target literal"),
            },
        )
    }
}

impl fmt::Display for ResourceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.name, self.ttl)?;
        match &self.rdata {
            RData::A(ip) => write!(f, "A {ip}"),
            RData::Ns(n) => write!(f, "NS {n}"),
            RData::Cname(n) => write!(f, "CNAME {n}"),
            RData::Soa { mname, serial, .. } => write!(f, "SOA {mname} serial={serial}"),
            RData::Ptr(n) => write!(f, "PTR {n}"),
            RData::Txt(t) => write!(f, "TXT {t:?}"),
            RData::Srv {
                priority,
                weight,
                port,
                target,
            } => write!(f, "SRV {priority} {weight} {port} {target}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        let rr = ResourceRecord::a("www.emory.edu", 300, [170, 140, 1, 1]);
        assert_eq!(rr.rtype(), RecordType::A);
        assert!(rr.to_string().contains("170.140.1.1"));

        let rr = ResourceRecord::srv("_hdns._tcp.global", 60, 0, 5, 8085, "host2.emory.edu");
        assert_eq!(rr.rtype(), RecordType::Srv);
        assert!(rr.to_string().contains("8085"));
    }
}
