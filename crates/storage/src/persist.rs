//! Single-file persistence for a [`DiskDatabase`]: a header page followed
//! by the heap file and the sorted-column file.
//!
//! Layout (all little-endian):
//!
//! ```text
//! page 0            header: magic, version, dims, cardinality, header CRC
//! pages 1..=H       heap file (H = ceil(c / rows_per_page))
//! pages H+1..       sorted-column file (d × ceil(c / entries_per_page))
//! (checksum trailer: per-page CRC32 table + footer — see `store.rs`)
//! ```
//!
//! The page layout is fully determined by `(dims, cardinality)`, so the
//! header carries only those; the column fences are re-read on open. The
//! header additionally carries a CRC32 of its own first 24 bytes so
//! header corruption is reported as such even on legacy files without a
//! checksum trailer; [`DiskDatabase::create_file`] seals the finished
//! file so every page is verified at open time and on every read
//! (DESIGN.md §10).

use std::io;
use std::path::Path;

use knmatch_core::Dataset;

use crate::column_file::SortedColumnFile;
use crate::db::{DiskDatabase, DiskLayout};
use crate::disk_engine::check_pool_pages;
use crate::heap_file::HeapFile;
use crate::page::{empty_page, rows_per_page, PageBuf};
use crate::store::{FileStore, PageStore, VerifyMode};

/// Magic bytes identifying a knmatch database file.
pub const MAGIC: &[u8; 8] = b"KNMATCH\x01";

/// On-disk format version. Version 2 added the header self-CRC (bytes
/// 24..28) and the checksum trailer written by [`FileStore::seal`].
pub const FORMAT_VERSION: u32 = 2;

fn write_header(buf: &mut PageBuf, dims: usize, cardinality: usize) {
    buf[..8].copy_from_slice(MAGIC);
    buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf[12..16].copy_from_slice(&(dims as u32).to_le_bytes());
    buf[16..24].copy_from_slice(&(cardinality as u64).to_le_bytes());
    let crc = crate::checksum::crc32(&buf[..24]);
    buf[24..28].copy_from_slice(&crc.to_le_bytes());
}

fn read_header(buf: &PageBuf) -> io::Result<(usize, usize)> {
    if &buf[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a knmatch database file",
        ));
    }
    // Version before CRC: a future version may lay the header out (and
    // checksum it) differently, so only a version we understand gets its
    // CRC validated.
    let version = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported format version {version}"),
        ));
    }
    let stored = u32::from_le_bytes(buf[24..28].try_into().expect("4 bytes"));
    let computed = crate::checksum::crc32(&buf[..24]);
    if stored != computed {
        return Err(crate::error::StorageError::BadHeader {
            reason: format!(
                "header CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
        .into());
    }
    let dims = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
    let cardinality = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")) as usize;
    if dims == 0 || dims * 8 > crate::page::PAGE_SIZE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt header: bad dims",
        ));
    }
    Ok((dims, cardinality))
}

impl DiskDatabase<FileStore> {
    /// Materialises `ds` into a new database file at `path` (truncating any
    /// existing file) and returns the ready database.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; rejects `pool_pages == 0` as
    /// `InvalidInput` before the file is created or truncated.
    pub fn create_file<P: AsRef<Path>>(
        path: P,
        ds: &Dataset,
        pool_pages: usize,
    ) -> io::Result<Self> {
        check_pool_pages(pool_pages)?;
        let mut store = FileStore::create(path)?;
        let mut header = empty_page();
        write_header(&mut header, ds.dims(), ds.len());
        store.append_page(&header);
        let layout = DiskDatabase::<FileStore>::build(ds, &mut store);
        // Seal once the layout is final: appends the checksum trailer so
        // the next open verifies every page.
        store.seal()?;
        layout.attach(store, pool_pages)
    }

    /// Opens an existing database file created by
    /// [`DiskDatabase::create_file`], verifying page reads under the
    /// default [`VerifyMode`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; rejects files with a bad magic,
    /// version, or truncated page ranges as `InvalidData`; rejects
    /// `pool_pages == 0` as `InvalidInput`.
    pub fn open_file<P: AsRef<Path>>(path: P, pool_pages: usize) -> io::Result<Self> {
        Self::open_file_with(path, pool_pages, VerifyMode::default())
    }

    /// [`DiskDatabase::open_file`] with the page read-verification policy
    /// every query's reads run under.
    ///
    /// # Errors
    ///
    /// As [`DiskDatabase::open_file`].
    pub fn open_file_with<P: AsRef<Path>>(
        path: P,
        pool_pages: usize,
        verify: VerifyMode,
    ) -> io::Result<Self> {
        let mut store = FileStore::open(path)?;
        if store.page_count() == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty file"));
        }
        let mut header = empty_page();
        store
            .try_read_page(0, &mut header)
            .map_err(io::Error::from)?;
        let (dims, cardinality) = read_header(&header)?;

        let heap = HeapFile::open(dims, cardinality, 1);
        let columns_base = 1 + cardinality.div_ceil(rows_per_page(dims));
        let expected_pages =
            columns_base + dims * cardinality.div_ceil(crate::page::COLUMN_ENTRIES_PER_PAGE);
        if store.page_count() < expected_pages {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "truncated database: {} pages, expected {expected_pages}",
                    store.page_count()
                ),
            ));
        }
        let columns = SortedColumnFile::try_open(&mut store, dims, cardinality, columns_base)
            .map_err(io::Error::from)?;
        store.set_verify_mode(verify);
        DiskLayout { columns, heap }.attach(store, pool_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knmatch_data::uniform;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("knmatch-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn create_then_open_roundtrip() {
        let ds = uniform(1500, 6, 42);
        let path = tmp("roundtrip.knm");
        let q = ds.point(17).to_vec();

        let created = DiskDatabase::create_file(&path, &ds, 64).unwrap();
        let fresh = created.frequent_k_n_match(&q, 10, 2, 5).unwrap();

        let reopened = DiskDatabase::open_file(&path, 64).unwrap();
        assert_eq!(reopened.dims(), 6);
        assert_eq!(reopened.len(), 1500);
        let replayed = reopened.frequent_k_n_match(&q, 10, 2, 5).unwrap();
        assert_eq!(fresh.result.ids(), replayed.result.ids());
        assert_eq!(
            fresh.ad.attributes_retrieved,
            replayed.ad.attributes_retrieved
        );

        // The scan baseline works on the reopened file too.
        let scan = reopened.scan_frequent_k_n_match(&q, 10, 2, 5).unwrap();
        assert_eq!(scan.result.ids(), replayed.result.ids());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let path = tmp("garbage.knm");
        std::fs::write(&path, vec![0u8; crate::page::PAGE_SIZE]).unwrap();
        assert!(
            DiskDatabase::open_file(&path, 8).is_err(),
            "bad magic must fail"
        );

        let ds = uniform(500, 4, 1);
        DiskDatabase::create_file(&path, &ds, 8).unwrap();
        // Truncate to the header + one page.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..2 * crate::page::PAGE_SIZE]).unwrap();
        let err = DiskDatabase::open_file(&path, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_zero_pool_pages_without_touching_the_file() {
        let ds = uniform(100, 3, 7);
        let path = tmp("zero-pool.knm");
        DiskDatabase::create_file(&path, &ds, 8).unwrap();
        let before = std::fs::read(&path).unwrap();

        let err = DiskDatabase::open_file(&path, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // create_file with a bad pool must not truncate an existing file.
        let err = DiskDatabase::create_file(&path, &ds, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_file(&path).unwrap();
    }

    /// Data pages of a (100-point, 3-dim) database: header + heap +
    /// columns, excluding the checksum trailer.
    fn data_pages_100x3() -> usize {
        1 + 100usize.div_ceil(rows_per_page(3))
            + 3 * 100usize.div_ceil(crate::page::COLUMN_ENTRIES_PER_PAGE)
    }

    #[test]
    fn rejects_wrong_version() {
        let path = tmp("version.knm");
        let ds = uniform(100, 3, 2);
        DiskDatabase::create_file(&path, &ds, 8).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Strip the checksum trailer (legacy layout) so the header itself
        // is what fails — with the trailer present, page-0 corruption is
        // caught by the checksum scrub before the header is ever parsed.
        let mut legacy = bytes[..data_pages_100x3() * crate::page::PAGE_SIZE].to_vec();
        legacy[8] = 99; // bump the version field
        std::fs::write(&path, &legacy).unwrap();
        let err = DiskDatabase::open_file(&path, 8).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_corruption_is_detected() {
        let path = tmp("header-crc.knm");
        let ds = uniform(100, 3, 2);
        DiskDatabase::create_file(&path, &ds, 8).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Sealed file, corrupt cardinality field: the page-0 checksum
        // catches it at open time.
        let mut sealed = bytes.clone();
        sealed[16] ^= 0xFF;
        std::fs::write(&path, &sealed).unwrap();
        let err = DiskDatabase::open_file(&path, 8).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch on page 0"),
            "{err}"
        );

        // Same corruption on a legacy (trailer-stripped) file: the header
        // self-CRC still reports it.
        let mut legacy = bytes[..data_pages_100x3() * crate::page::PAGE_SIZE].to_vec();
        legacy[16] ^= 0xFF;
        std::fs::write(&path, &legacy).unwrap();
        let err = DiskDatabase::open_file(&path, 8).unwrap_err();
        assert!(err.to_string().contains("header CRC mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_data_page_fails_open_of_sealed_file() {
        let path = tmp("corrupt-data.knm");
        let ds = uniform(100, 3, 2);
        DiskDatabase::create_file(&path, &ds, 8).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte in the middle of a column page.
        bytes[3 * crate::page::PAGE_SIZE + 123] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let err = DiskDatabase::open_file(&path, 8).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch on page 3"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopened_matches_in_memory_oracle() {
        let ds = uniform(800, 5, 9);
        let path = tmp("oracle.knm");
        DiskDatabase::create_file(&path, &ds, 32).unwrap();
        let db = DiskDatabase::open_file(&path, 32).unwrap();
        let q = ds.point(3).to_vec();
        for n in [1usize, 3, 5] {
            let disk = db.k_n_match(&q, 7, n).unwrap();
            let mem = knmatch_core::k_n_match_scan(&ds, &q, 7, n).unwrap();
            assert_eq!(disk.result.ids(), mem.ids(), "n={n}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
