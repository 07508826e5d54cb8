#include "sim/result_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/fault.hh"

namespace specslice::sim
{

namespace cache_detail
{

/** In-memory view of the LRU index file, held under the flock. */
struct CacheIndex
{
    struct Entry
    {
        std::uint64_t seq = 0;
        std::uint64_t bytes = 0;
    };

    std::map<std::string, Entry> entries;
    std::uint64_t nextSeq = 1;

    std::uint64_t
    totalBytes() const
    {
        std::uint64_t sum = 0;
        for (const auto &[key, e] : entries)
            sum += e.bytes;
        return sum;
    }

    void
    touch(const std::string &key)
    {
        auto it = entries.find(key);
        if (it != entries.end())
            it->second.seq = nextSeq++;
    }

    void
    insert(const std::string &key, std::uint64_t bytes)
    {
        entries[key] = {nextSeq++, bytes};
    }
};

} // namespace cache_detail

using cache_detail::CacheIndex;

namespace
{

constexpr char entryMagic[] = "SSRC1";

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
makeDirs(const std::string &path)
{
    // mkdir -p, two levels deep at most here.
    std::string partial;
    std::istringstream ss(path);
    std::string seg;
    bool abs = !path.empty() && path[0] == '/';
    while (std::getline(ss, seg, '/')) {
        if (seg.empty())
            continue;
        partial += partial.empty() && !abs ? seg : "/" + seg;
        if (abs && partial[0] != '/')
            partial = "/" + partial;
        if (mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

/** errno values that mean "the disk, not the caller, is broken" and
 *  flip the cache into pass-through mode instead of failing runs. */
bool
diskFailureErrno(int err)
{
    return err == ENOSPC || err == EDQUOT || err == EIO;
}

/**
 * Validate one entry file end to end: magic, key echo, payload
 * length, FNV-1a checksum, no trailing bytes. On success fills
 * `payload`.
 */
bool
readEntry(const std::string &path, const std::string &key,
          std::string &payload)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;

    // Header line: "SSRC1 <key> <payload_bytes> <fnv64hex>\n".
    std::string header;
    if (!std::getline(is, header))
        return false;
    std::istringstream hs(header);
    std::string magic, echoed_key, sum_text;
    std::uint64_t payload_bytes = 0;
    if (!(hs >> magic >> echoed_key >> payload_bytes >> sum_text) ||
        magic != entryMagic || echoed_key != key ||
        sum_text.size() != 16)
        return false;

    payload.assign(payload_bytes, '\0');
    if (payload_bytes &&
        !is.read(payload.data(),
                 static_cast<std::streamsize>(payload_bytes)))
        return false;
    // Trailing bytes mean the length field lies: reject.
    char extra;
    if (is.get(extra))
        return false;

    // Injected bit-rot (cache.flip): flip one payload bit after the
    // read so the checksum below catches it.
    if (!payload.empty() && fault::serviceFire(fault::Site::CacheFlip))
        payload[payload.size() / 2] ^= 1;

    return hex64(fnv1a64(payload)) == sum_text;
}

/** RAII flock on <dir>/index.lock. */
class IndexLock
{
  public:
    explicit IndexLock(const std::string &dir)
    {
        fd_ = ::open((dir + "/index.lock").c_str(),
                     O_CREAT | O_RDWR | O_CLOEXEC, 0666);
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~IndexLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    bool held() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

bool
readIndex(const std::string &path, CacheIndex &idx)
{
    idx.entries.clear();
    idx.nextSeq = 1;
    std::ifstream is(path);
    if (!is)
        return true;  // no index yet: empty is a valid state
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::uint64_t seq = 0, bytes = 0;
        std::string key;
        if (!(ls >> seq >> bytes >> key) || key.empty())
            continue;  // advisory: skip malformed lines
        idx.entries[key] = {seq, bytes};
        idx.nextSeq = std::max(idx.nextSeq, seq + 1);
    }
    return true;
}

bool
writeIndex(const std::string &dir, const CacheIndex &idx)
{
    std::string tmp =
        dir + "/index.tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        for (const auto &[key, e] : idx.entries)
            os << e.seq << " " << e.bytes << " " << key << "\n";
        os.flush();
        if (!os)
            return false;
    }
    if (::rename(tmp.c_str(), (dir + "/index").c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace

ResultCache::ResultCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), maxBytes_(max_bytes)
{
    makeDirs(dir_);
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    // Two-hex-char fanout; short keys (not produced by runCacheKey,
    // but legal) land in a literal "short" bucket.
    if (key.size() <= 2)
        return dir_ + "/short/" + key;
    return dir_ + "/" + key.substr(0, 2) + "/" + key.substr(2);
}

void
ResultCache::quarantineEntry(const std::string &path,
                             const std::string &key)
{
    // Preserve the corrupt bytes for postmortem; a failed rename
    // (quarantine dir unwritable, cross-device) falls back to unlink
    // so a poisoned entry can never be served twice either way.
    const std::string qdir = dir_ + "/quarantine";
    bool moved = makeDirs(qdir) &&
                 ::rename(path.c_str(),
                          (qdir + "/" + key).c_str()) == 0;
    if (!moved)
        ::unlink(path.c_str());
    ++stats_.quarantined;
}

bool
ResultCache::withIndex(
    const std::function<void(CacheIndex &)> &fn, std::string &error)
{
    IndexLock lock(dir_);
    if (!lock.held()) {
        error = "cannot lock cache index in '" + dir_ + "'";
        return false;
    }
    CacheIndex idx;
    readIndex(dir_ + "/index", idx);
    fn(idx);
    if (!writeIndex(dir_, idx)) {
        error = "cannot rewrite cache index in '" + dir_ + "'";
        return false;
    }
    return true;
}

std::optional<std::string>
ResultCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> guard(mu_);
    const std::string path = entryPath(key);
    if (::access(path.c_str(), F_OK) != 0) {
        ++stats_.misses;
        return std::nullopt;
    }

    std::string payload;
    if (!readEntry(path, key, payload)) {
        ++stats_.rejected;
        ++stats_.misses;
        quarantineEntry(path, key);
        return std::nullopt;
    }

    ++stats_.hits;
    std::string err;
    withIndex([&](CacheIndex &idx) { idx.touch(key); }, err);
    return payload;
}

bool
ResultCache::store(const std::string &key, const std::string &payload,
                   std::string &error)
{
    std::lock_guard<std::mutex> guard(mu_);
    if (degraded_) {
        ++stats_.passthrough;
        return true;
    }
    if (fault::serviceFire(fault::Site::CacheEnospc)) {
        // Injected disk-full: degrade exactly as a real ENOSPC would.
        degraded_ = true;
        ++stats_.passthrough;
        return true;
    }

    const std::string path = entryPath(key);
    const std::string parent = path.substr(0, path.rfind('/'));
    if (!makeDirs(parent)) {
        if (diskFailureErrno(errno)) {
            degraded_ = true;
            ++stats_.passthrough;
            return true;
        }
        error = "cannot create cache directory '" + parent + "'";
        return false;
    }

    // Stage in the target directory (rename must not cross devices);
    // pid + address makes the name unique across processes and
    // threads. POSIX I/O so failures carry a classifiable errno.
    std::ostringstream tmpname;
    tmpname << path << ".tmp." << ::getpid() << "."
            << reinterpret_cast<std::uintptr_t>(&tmpname);
    const std::string tmp = tmpname.str();

    const std::string header = std::string(entryMagic) + " " + key +
                               " " + std::to_string(payload.size()) +
                               " " + hex64(fnv1a64(payload)) + "\n";
    int fd = ::open(tmp.c_str(),
                    O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0666);
    int staging_errno = fd < 0 ? errno : 0;
    if (fd >= 0) {
        auto writeAllFd = [&](const char *p, std::size_t n) {
            while (n) {
                ssize_t w = ::write(fd, p, n);
                if (w < 0) {
                    if (errno == EINTR)
                        continue;
                    staging_errno = errno;
                    return false;
                }
                p += w;
                n -= static_cast<std::size_t>(w);
            }
            return true;
        };
        if (!writeAllFd(header.data(), header.size()) ||
            !writeAllFd(payload.data(), payload.size())) {
            ::close(fd);
            ::unlink(tmp.c_str());
            fd = -1;
        } else {
            ::close(fd);
        }
    }
    if (fd < 0) {
        if (diskFailureErrno(staging_errno)) {
            degraded_ = true;
            ++stats_.passthrough;
            return true;
        }
        error = "cannot stage cache entry '" + tmp +
                "': " + std::strerror(staging_errno);
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        if (diskFailureErrno(err)) {
            degraded_ = true;
            ++stats_.passthrough;
            return true;
        }
        error = std::string("cannot commit cache entry: ") +
                std::strerror(err);
        return false;
    }
    ++stats_.stores;

    const std::uint64_t entry_bytes = payload.size();
    std::vector<std::string> evicted;
    if (!withIndex(
            [&](CacheIndex &idx) {
                idx.insert(key, entry_bytes);
                if (!maxBytes_)
                    return;
                while (idx.totalBytes() > maxBytes_ &&
                       idx.entries.size() > 1) {
                    // Evict lowest-seq (least recently used), never
                    // the entry just stored.
                    auto victim = idx.entries.end();
                    for (auto it = idx.entries.begin();
                         it != idx.entries.end(); ++it) {
                        if (it->first == key)
                            continue;
                        if (victim == idx.entries.end() ||
                            it->second.seq < victim->second.seq)
                            victim = it;
                    }
                    if (victim == idx.entries.end())
                        break;
                    evicted.push_back(victim->first);
                    idx.entries.erase(victim);
                }
            },
            error))
        return false;

    for (const std::string &k : evicted) {
        ::unlink(entryPath(k).c_str());
        ++stats_.evictions;
    }
    return true;
}

std::uint64_t
ResultCache::entryCount()
{
    std::lock_guard<std::mutex> guard(mu_);
    std::uint64_t n = 0;
    std::string err;
    withIndex([&](CacheIndex &idx) { n = idx.entries.size(); }, err);
    return n;
}

} // namespace specslice::sim
